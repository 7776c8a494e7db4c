package explore

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"paratime/internal/isa"
	"paratime/internal/memctrl"
	"paratime/internal/sim"
)

// requireSameExplore compares full exploration outcomes, including the
// error channel: ExplorePar must reproduce the sequential oracle's
// witnesses, counters, truncation flags and error text exactly.
func requireSameExplore(t *testing.T, label string, want *Result, wantErr error, got *Result, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: oracle %v, ExplorePar %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text:\noracle %q\npar    %q", label, wantErr, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results differ:\noracle %+v\npar    %+v", label, want, got)
	}
}

// TestExploreParMatchesSequential: ExplorePar must be bit-identical to
// the sequential oracle — same ExactWorst, witnesses, state/path
// counters, truncation — for random input-dependent programs on private
// cores and on every co-run regime (shared-L2 joint, partitioned L2,
// and a bus under round-robin, TDMA and MBBA arbitration), inline and
// at several worker counts under GOMAXPROCS 1 and 8. Concurrent pricings of one System share its
// arbiter policy, so under -race the bus regimes also prove that no
// grant state leaks between them.
func TestExploreParMatchesSequential(t *testing.T) {
	topologies := regimes()
	topologies["private"] = regime{build: func(progs []*isa.Program) sim.System {
		cores := make([]sim.CoreConfig, len(progs))
		for i, p := range progs {
			cores[i] = simCore(fmt.Sprintf("p%d", i), p)
		}
		return sim.System{Cores: cores, Mem: memctrl.DefaultConfig()}
	}}
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(318))
		for _, name := range slices.Sorted(maps.Keys(topologies)) {
			for trial := 0; trial < 4; trial++ {
				for _, nCores := range []int{1, 2} {
					if name == "solo" && nCores > 1 {
						continue
					}
					progs := make([]*isa.Program, nCores)
					inputs := make([]Input, nCores)
					for i := range progs {
						progs[i] = randomProgram(rng, fmt.Sprintf("p%d", i))
						inputs[i] = Input{Core: i, Reg: isa.R1, Values: []int32{0, 1, 3}}
					}
					sys := topologies[name].build(progs)
					b := Budget{InitStates: 2}
					want, wantErr := oracleExplore(sys, inputs, b)
					for _, workers := range []int{1, 2, 4} {
						label := fmt.Sprintf("procs %d %s trial %d cores %d workers %d", procs, name, trial, nCores, workers)
						got, gotErr := ExplorePar(sys, inputs, b, workers)
						requireSameExplore(t, label, want, wantErr, got, gotErr)
					}
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestExploreParTruncation: budget truncation semantics — the MaxStates
// cut-off point, the Truncated flag, the all-truncated error naming the
// limiting budget field, and the state number of a failing simulation —
// must match the sequential oracle inline and under parallel pricing.
func TestExploreParTruncation(t *testing.T) {
	p := isa.MustAssemble("diamond", diamond)
	sys := sim.System{Cores: []sim.CoreConfig{simCore("d", p)}, Mem: memctrl.DefaultConfig()}
	inputs := []Input{{Core: 0, Reg: isa.R1, Values: []int32{0, 1, 5}}}
	full, err := oracleExplore(sys, inputs, Budget{InitStates: 3})
	if err != nil {
		t.Fatal(err)
	}
	budgets := map[string]Budget{
		// A cycle limit just below the exact worst fails state 1 and
		// later states: the error must name the lowest, like the oracle.
		"sim-failure": {InitStates: 3, MaxCycles: full.ExactWorst[0] - 3},
		// 3 assignments x 3 patterns = 9 states; cap mid-enumeration.
		"max-states": {InitStates: 3, MaxStates: 4},
		// Every trace blows the decision budget: no state priced, and
		// the error must name MaxBranchDecisions.
		"all-truncated": {InitStates: 2, MaxBranchDecisions: 1},
		// Divergence guard trips first: the error names MaxSteps.
		"all-truncated-steps": {InitStates: 2, MaxSteps: 3},
		// A negative cap prices nothing: an error, never a panic.
		"negative-max-states": {InitStates: 2, MaxStates: -1},
	}
	for name, b := range budgets {
		want, wantErr := oracleExplore(sys, inputs, b)
		if name == "max-states" {
			if wantErr != nil {
				t.Fatalf("%s: %v", name, wantErr)
			}
			if want.States != 4 || !want.Truncated {
				t.Fatalf("%s: states %d truncated %v, want 4 and true", name, want.States, want.Truncated)
			}
		} else {
			if wantErr == nil {
				t.Fatalf("%s: oracle exploration unexpectedly succeeded", name)
			}
			field := map[string]string{
				"all-truncated":       "MaxBranchDecisions",
				"all-truncated-steps": "MaxSteps",
				"sim-failure":         "exceeded",
			}[name]
			if !strings.Contains(wantErr.Error(), field) {
				t.Fatalf("%s: error %q does not name %s", name, wantErr, field)
			}
		}
		for _, workers := range []int{1, 2, 8} {
			got, gotErr := ExplorePar(sys, inputs, b, workers)
			requireSameExplore(t, fmt.Sprintf("%s workers %d", name, workers), want, wantErr, got, gotErr)
		}
	}
}
