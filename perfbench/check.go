package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"

	"paratime/internal/arbiter"
	"paratime/internal/cache"
	"paratime/internal/cachestore"
	"paratime/internal/core"
	"paratime/internal/engine"
	"paratime/internal/experiments"
	"paratime/internal/explore"
	"paratime/internal/memctrl"
	"paratime/internal/parallel"
	"paratime/internal/partition"
	"paratime/internal/sim"
	"paratime/internal/spec"
)

// The per-operation output checks. Each returns nil for a correct
// output and a description of the first problem otherwise; the caller
// counts the operation as failed and carries on.

// checkRoundTrip checks that the decoded scenario re-encodes to exactly
// the bytes it was decoded from.
func checkRoundTrip(input []byte, sc *spec.Scenario) error {
	out, err := sc.Encode()
	if err != nil {
		return fmt.Errorf("re-encode: %v", err)
	}
	if !bytes.Equal(out, input) {
		return fmt.Errorf("encode -> decode -> encode changed the scenario bytes")
	}
	return nil
}

// checkReport checks the report's shape against its scenario and the
// soundness sandwich: simulated cycles <= exact worst <= WCET for every
// simulated or explored task.
func checkReport(sc *spec.Scenario, rep *spec.Report) error {
	if len(rep.Tasks) != len(sc.Tasks) {
		return fmt.Errorf("%d task reports for %d tasks", len(rep.Tasks), len(sc.Tasks))
	}
	for i, t := range rep.Tasks {
		if t.Name != sc.Tasks[i].Name || t.WCET <= 0 {
			return fmt.Errorf("task %d: report %q wcet %d", i, t.Name, t.WCET)
		}
		if sc.Explore != nil && (t.ExactWorst <= 0 || t.ExactWorst > t.WCET) {
			return fmt.Errorf("task %s: exactWorst %d outside (0, wcet %d]", t.Name, t.ExactWorst, t.WCET)
		}
	}
	if sc.Sim != nil && len(rep.Sim) != len(rep.Tasks) {
		return fmt.Errorf("%d sim results for %d tasks", len(rep.Sim), len(rep.Tasks))
	}
	for i, s := range rep.Sim {
		if s.Cycles <= 0 || s.Cycles > rep.Tasks[i].WCET || !s.Sound {
			return fmt.Errorf("task %s: simulated %d cycles against wcet %d", s.Name, s.Cycles, rep.Tasks[i].WCET)
		}
	}
	return nil
}

// reference computes the sequential reference encoding of a scenario's
// report: a private engine at intra-analysis parallelism 1, the
// schedule every parallel path must reproduce byte for byte.
type reference struct {
	eng *engine.Engine
}

func newReference() *reference {
	return &reference{eng: engine.NewWithCache(1, cachestore.NewMemory(512))}
}

// sequential runs f with the process-wide intra-analysis parallelism
// pinned to 1, then restores the default. Only checks, never timed
// operations, run under it.
func sequential(f func()) {
	parallel.SetDefault(1)
	defer parallel.SetDefault(0)
	f()
}

// report runs one scenario on the reference engine; callers hold
// sequential.
func (ref *reference) report(sc *spec.Scenario) ([]byte, error) {
	rep, err := spec.Run(context.Background(), sc, ref.eng)
	if err != nil {
		return nil, err
	}
	return rep.Encode()
}

// checkWitnesses replays every explored task's witness and checks that
// it reproduces the reported exact worst case.
func checkWitnesses(sc *spec.Scenario, rep *spec.Report) error {
	if sc.Explore == nil {
		return nil
	}
	tasks := make([]core.Task, len(sc.Tasks))
	byName := map[string]int{}
	for i := range sc.Tasks {
		t, err := sc.Tasks[i].BuildTask()
		if err != nil {
			return err
		}
		tasks[i] = t
		byName[t.Name] = i
	}
	sys, err := sc.System.BuildSystem()
	if err != nil {
		return err
	}
	mem := sc.System.MemConfig()
	for i, tr := range rep.Tasks {
		if tr.Witness == nil {
			return fmt.Errorf("task %s: no witness", tr.Name)
		}
		// Core c of the replayed system runs task remap[c].
		var topo sim.System
		remap := []int{i}
		if sc.Mode.Kind == spec.KindSolo {
			topo = sim.FromConfig(sys, mem, nil, false, tasks[i])
		} else {
			if topo, err = coRun(sc, sys, mem, tasks); err != nil {
				return err
			}
			remap = make([]int, len(tasks))
			for c := range remap {
				remap[c] = c
			}
		}
		init, err := parseWitness(tr.Witness, byName, remap)
		if err != nil {
			return fmt.Errorf("task %s: %v", tr.Name, err)
		}
		res, err := explore.Replay(topo, init, sc.Sim.MaxCycles)
		if err != nil {
			return fmt.Errorf("task %s: replay: %v", tr.Name, err)
		}
		c := 0
		if sc.Mode.Kind != spec.KindSolo {
			c = i
		}
		if got := res.Cycles(c); got != tr.ExactWorst {
			return fmt.Errorf("task %s: witness replays to %d cycles, report says exactWorst %d", tr.Name, got, tr.ExactWorst)
		}
	}
	return nil
}

// coRun builds the co-run topology an explore block of a joint,
// partition or bus scenario prices, from the scenario's public fields.
func coRun(sc *spec.Scenario, sys core.SystemConfig, mem memctrl.Config, tasks []core.Task) (sim.System, error) {
	switch sc.Mode.Kind {
	case spec.KindJoint:
		return sim.FromConfig(sys, mem, nil, true, tasks...), nil
	case spec.KindPartition:
		p := sc.Mode.Partition
		l2 := *sys.Mem.L2
		var view cache.Config
		var err error
		switch p.Scheme {
		case spec.PartTask:
			view, err = partition.SetPartition(l2, len(tasks))
		case spec.PartCore:
			view, err = partition.SetPartition(l2, p.Cores)
		case spec.PartWays:
			view, err = partition.Columnize(l2, p.Ways)
		default:
			view, err = partition.Bankize(l2, p.Banks, p.TotalBanks)
		}
		if err != nil {
			return sim.System{}, err
		}
		views := make([]*cache.Config, len(tasks))
		for i := range views {
			views[i] = &view
		}
		return sim.FromConfigPerCoreL2(sys, mem, nil, tasks, views), nil
	case spec.KindBus:
		return sim.FromConfig(sys, mem, busArbiter(sc), false, tasks...), nil
	}
	return sim.System{}, fmt.Errorf("mode %q has no co-run topology", sc.Mode.Kind)
}

// busArbiter builds a fresh arbiter for a bus scenario, deriving the
// transaction latency the way the scenario format defines it.
func busArbiter(sc *spec.Scenario) arbiter.Arbiter {
	b := sc.Mode.Bus
	lat := b.Latency
	if lat == 0 {
		lat = sc.System.MemConfig().Bound()
		if sc.System.L2 != nil {
			lat += sc.System.L2.HitLatency
		}
	}
	switch b.Policy {
	case spec.BusTDMA:
		slots := make([]arbiter.Slot, len(b.Slots))
		for i, s := range b.Slots {
			slots[i] = arbiter.Slot{Owner: s.Owner, Len: s.Len}
		}
		return arbiter.NewTDMA(slots, lat)
	case spec.BusMBBA:
		return arbiter.NewMultiBandwidth(b.Weights, lat)
	}
	n := b.Cores
	if n == 0 {
		n = len(sc.Tasks)
	}
	return arbiter.NewRoundRobin(n, lat)
}

// parseWitness turns a report witness ("task.reg=value" inputs and a
// cache pattern) back into the explorer's start state; core c runs task
// remap[c].
func parseWitness(w *spec.WitnessReport, byName map[string]int, remap []int) (explore.InitState, error) {
	init := explore.InitState{Regs: make([][]explore.RegValue, len(remap)), Pattern: w.Pattern}
	for _, in := range w.Inputs {
		lhs, val, ok := strings.Cut(in, "=")
		dot := strings.LastIndex(lhs, ".")
		if !ok || dot < 0 {
			return init, fmt.Errorf("witness input %q", in)
		}
		v, err := strconv.ParseInt(val, 10, 32)
		if err != nil {
			return init, fmt.Errorf("witness input %q: %v", in, err)
		}
		reg, ok := spec.RegByName(lhs[dot+1:])
		task, known := byName[lhs[:dot]]
		if !ok || !known {
			return init, fmt.Errorf("witness input %q", in)
		}
		for c, t := range remap {
			if t == task {
				init.Regs[c] = append(init.Regs[c], explore.RegValue{Reg: reg, Value: int32(v)})
			}
		}
	}
	return init, nil
}

// tightness indexes the committed TIGHTNESS.json by scenario and task.
type tightness map[string]experiments.TightnessEntry

func loadTightness(path string) (tightness, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	entries, err := experiments.DecodeTightness(data)
	if err != nil {
		return nil, err
	}
	t := tightness{}
	for _, e := range entries {
		t[e.Scenario+"/"+e.Task] = e
	}
	return t, nil
}

// check compares the explored tasks of a committed scenario with the
// baseline's exact worst case and bound.
func (t tightness) check(rep *spec.Report) error {
	for _, tr := range rep.Tasks {
		want, ok := t[rep.Scenario+"/"+tr.Name]
		if !ok {
			continue
		}
		if tr.ExactWorst != want.Exact || tr.WCET != want.Bound {
			return fmt.Errorf("%s/%s: exact %d bound %d, TIGHTNESS.json has exact %d bound %d",
				rep.Scenario, tr.Name, tr.ExactWorst, tr.WCET, want.Exact, want.Bound)
		}
	}
	return nil
}

// digestFile is the committed reference: for the default seed, each
// workload's input ids mapped to the digest of their output, recorded
// at intra-analysis parallelism 1.
const digestFile = "perfbench/testdata/digests.json"

func loadDigests() (map[string]map[string]string, error) {
	data, err := os.ReadFile(digestFile)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil // nothing recorded yet
	}
	if err != nil {
		return nil, err
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %v", digestFile, err)
	}
	return all, nil
}

// digestsKept is how many inputs per workload the committed file pins:
// the first ones of the seed's input sequence.
const digestsKept = 512

// writeDigests merges the digests of this run's first inputs into file
// under its workload.
func (r *run) writeDigests(file string) error {
	all := map[string]map[string]string{}
	if data, err := os.ReadFile(file); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %v", file, err)
		}
	}
	kept := map[string]string{}
	for _, key := range r.digestOrder[:min(len(r.digestOrder), digestsKept)] {
		kept[key] = r.digests[key]
	}
	all[r.workload] = kept
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(data, '\n'), 0o644)
}
