package conform

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"github.com/dps-overlay/dps/internal/chaos"
	"github.com/dps-overlay/dps/internal/core"
)

// randomCorruptionScenario derives a fuzz scenario of n corruption events
// from a seed: random ops at random (sorted, spaced) steps against random
// victim counts. The derivation is pure — the same seed always yields the
// same scenario — so failures replay exactly and worker counts compare
// bit-identical timelines.
func randomCorruptionScenario(seed int64, n int) chaos.Scenario {
	rng := rand.New(rand.NewSource(seed))
	kinds := core.CorruptionKinds()
	// Space the events across the fault phase so pending repairs do not
	// pile into one unbounded chain; keep a convergence tail of two full
	// suspicion windows after the last event.
	steps := int64(60*n + 120)
	events := make([]chaos.Event, 0, n)
	for i := 0; i < n; i++ {
		events = append(events, chaos.Event{
			Step:  int64(40 + i*60 + rng.Intn(20)),
			Kind:  chaos.Corrupt,
			Op:    kinds[rng.Intn(len(kinds))],
			Count: 1 + rng.Intn(2),
		})
	}
	return chaos.Scenario{
		Name: fmt.Sprintf("corruption-fuzz-%d", seed),
		Description: "randomized corruption op sequence derived from the seed " +
			"(property test)",
		Steps:    steps,
		Converge: 400,
		Events:   events,
	}
}

// TestCorruptionPropertyRandomOpsConverge is the property test of the
// self-stabilization claim: ANY sequence of corruption ops must converge
// back to an invariant-clean configuration, with every injected fault's
// repair interval closed, at every worker count, bit-identically.
func TestCorruptionPropertyRandomOpsConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("corruption property test is long; skipped with -short")
	}
	for _, seed := range []int64{1, 2, 3} {
		sc := randomCorruptionScenario(seed, 5)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: generated scenario invalid: %v", seed, err)
		}
		var base string
		for _, workers := range []int{1, 2, 4} {
			opts := chaosTestOptions()
			opts.Seed = seed
			opts.Workers = workers
			opts.Custom = []chaos.Scenario{sc}
			runs := simRuns(t, opts)
			if len(runs) != 1 {
				t.Fatalf("seed %d: ran %d scenarios, want only the custom one", seed, len(runs))
			}
			r := runs[0]
			if !r.FinalClean {
				t.Errorf("seed %d workers %d: final sweep dirty: %v; sample %+v",
					seed, workers, r.FinalCheck.ByInvariant, r.FinalCheck.Sample)
			}
			if len(r.Unrepaired) > 0 {
				t.Errorf("seed %d workers %d: %d faults never repaired (steps %v)",
					seed, workers, len(r.Unrepaired), r.Unrepaired)
			}
			if len(r.Applied) == 0 {
				t.Errorf("seed %d workers %d: no corruption applied", seed, workers)
			}
			raw := replayJSON(t, runs)
			if base == "" {
				base = raw
			} else if raw != base {
				t.Errorf("seed %d workers %d: corruption report differs from sequential run",
					seed, workers)
			}
		}
	}
}

// TestCorruptionPropertyNightly is the larger-N variant for the nightly
// cron: longer random op sequences across more seeds.
func TestCorruptionPropertyNightly(t *testing.T) {
	if os.Getenv("CHAOS_NIGHTLY") == "" {
		t.Skip("nightly fuzz; set CHAOS_NIGHTLY=1 to run")
	}
	for seed := int64(1); seed <= 5; seed++ {
		opts := chaosNightlyOptions()
		opts.Seed = seed
		opts.Custom = []chaos.Scenario{randomCorruptionScenario(seed*7919, 12)}
		r := simRuns(t, opts)[0]
		if !r.FinalClean {
			t.Errorf("seed %d: final sweep dirty: %v; sample %+v",
				seed, r.FinalCheck.ByInvariant, r.FinalCheck.Sample)
		}
		if len(r.Unrepaired) > 0 {
			t.Errorf("seed %d: %d faults never repaired (steps %v)",
				seed, len(r.Unrepaired), r.Unrepaired)
		}
	}
}
