package main

import (
	"fmt"
	"math/rand"

	"paratime/internal/core"
	"paratime/internal/spec"
	"paratime/internal/workload"
)

// gen draws seeded scenarios and sweep documents. The program under
// test only ever receives the encoded bytes these produce: decoding
// them is part of every timed operation.
//
// Every draw comes from one of two sources. shape draws what sets an
// input's cost: modes, task kernels and sizes, task and thread counts,
// cache sizes, partitions, sweep axes and their lengths. rng draws the
// values on that shape: cache, bus and memory latencies, bus delays,
// TDMA slot lengths and MBBA weights. Both are the seed's source unless
// the generator is shaped (newShapedGen).
type gen struct {
	rng   *rand.Rand
	shape *rand.Rand
	seen  map[string]bool // geometry tuples already handed out
}

// shapeSeed seeds the shape source of a shaped generator.
const shapeSeed = 0x5eed

func newGen(seed int64) *gen {
	rng := rand.New(rand.NewSource(seed))
	return &gen{rng: rng, shape: rng, seen: map[string]bool{}}
}

// newShapedGen draws shapes from shapeSeed and values from seed: every
// seed gives the same mix of work with fresh values on it (so fresh
// outputs and fresh core.PrepareKeys), and a workload's cost, with its
// latency tail, does not depend on which shapes a seed happens to draw.
func newShapedGen(seed int64) *gen {
	g := newGen(seed)
	g.shape = rand.New(rand.NewSource(shapeSeed))
	return g
}

func (g *gen) between(lo, hi int) int { return lo + g.rng.Intn(hi-lo+1) }

func (g *gen) pick(xs ...int) int { return xs[g.rng.Intn(len(xs))] }

// sbetween, spick and sn draw from the shape source.
func (g *gen) sbetween(lo, hi int) int { return lo + g.shape.Intn(hi-lo+1) }

func (g *gen) spick(xs ...int) int { return xs[g.shape.Intn(len(xs))] }

func (g *gen) sn(n int) int { return g.shape.Intn(n) }

// task draws one task from the workload constructors with a drawn size,
// placed at the canonical slot for core i. The name carries the slot so
// co-scheduled draws of one kernel stay distinguishable.
func (g *gen) task(i int) core.Task {
	at := workload.Slot(i)
	var t core.Task
	switch g.sn(9) {
	case 0:
		t = workload.Fib(g.sbetween(8, 48), at)
	case 1:
		t = workload.MatMult(g.sbetween(2, 4), at)
	case 2:
		t = workload.BSort(g.sbetween(4, 12), at)
	case 3:
		t = workload.CRC(g.sbetween(4, 16), at)
	case 4:
		t = workload.FIR(g.sbetween(8, 16), g.sbetween(2, 4), at)
	case 5:
		t = workload.MemCopy(g.sbetween(8, 48), at)
	case 6:
		t = workload.CountBits(g.sbetween(2, 8), at)
	case 7:
		stride := g.spick(16, 32, 64)
		t = workload.Thrasher(stride*g.sbetween(16, 96), stride, at)
	default:
		t = workload.Random(g.shape.Int63n(1<<30), at)
	}
	t.Name = fmt.Sprintf("%s.c%d", t.Name, i)
	return t
}

func (g *gen) tasks(n int) []spec.TaskSpec {
	out := make([]spec.TaskSpec, n)
	for i := range out {
		ts, err := spec.TaskToSpec(g.task(i))
		if err != nil {
			panic(fmt.Sprintf("perfbench: workload task does not encode: %v", err))
		}
		out[i] = ts
	}
	return out
}

func (g *gen) l1() spec.CacheSpec {
	return spec.CacheSpec{Sets: g.spick(4, 8, 16, 32, 64), Ways: g.spick(1, 2, 4), LineBytes: g.spick(8, 16, 32),
		HitLatency: 1, MissPenalty: g.between(2, 8)}
}

func (g *gen) l2() *spec.CacheSpec {
	return &spec.CacheSpec{Sets: g.spick(16, 32, 64, 128, 256), Ways: g.spick(2, 4, 8), LineBytes: g.spick(32, 64),
		HitLatency: g.between(3, 6), MissPenalty: g.between(10, 30)}
}

// system draws a geometry tuple no earlier draw of this generator used,
// so every task of every scenario has a fresh core.PrepareKey. A tuple
// already used gets new latencies: the sizes stay, so the shape draws
// do not depend on the values drawn.
func (g *gen) system() spec.SystemSpec {
	sys := spec.DefaultSystemSpec()
	sys.L1I, sys.L1D, sys.L2 = g.l1(), g.l1(), g.l2()
	for {
		key := fmt.Sprint(sys.L1I, sys.L1D, *sys.L2)
		if !g.seen[key] {
			g.seen[key] = true
			return sys
		}
		sys.L1I.MissPenalty, sys.L1D.MissPenalty = g.between(2, 8), g.between(2, 8)
		sys.L2.HitLatency, sys.L2.MissPenalty = g.between(3, 6), g.between(10, 30)
	}
}

// Modes of the analysis workloads.
var analysisModes = []string{spec.KindSolo, spec.KindJoint, spec.KindPartition, spec.KindLock,
	spec.KindBus, spec.KindSMT, spec.KindPRET}

// analysisScenario draws one static-analysis scenario (no sim or
// explore block) in the given mode, with at most maxTasks tasks (at
// least 2).
func (g *gen) analysisScenario(name, kind string, maxTasks int) *spec.Scenario {
	sc := &spec.Scenario{Spec: spec.Version, Name: name, System: g.system(), Mode: spec.ModeSpec{Kind: kind}}
	n := g.sbetween(2, maxTasks)
	switch kind {
	case spec.KindSolo:
		n = g.sbetween(1, maxTasks-1)
	case spec.KindJoint:
		sc.Mode.Model = []string{spec.ModelDirectMapped, spec.ModelAgeShift}[g.sn(2)]
		if g.sn(3) == 0 {
			for i := 0; i < n; i++ {
				sc.Mode.Lifetimes = append(sc.Mode.Lifetimes, spec.LifetimeSpec{Core: i % 2, Priority: i})
			}
		}
	case spec.KindPartition:
		sc.Mode.Partition = g.partition(sc.System.L2, n)
	case spec.KindLock:
		n = 1
		sc.Mode.Lock = &spec.LockSpec{Policy: []string{spec.LockStatic, spec.LockDynamic}[g.sn(2)],
			BudgetLines: g.sbetween(8, 64)}
	case spec.KindBus:
		sc.Mode.Bus = g.bus(n)
	case spec.KindSMT:
		sc.Mode.SMT = &spec.SMTSpec{Threads: g.sbetween(n, 4), FULatency: g.between(1, 3), MemLatency: g.between(5, 20)}
	case spec.KindPRET:
		mem := g.between(10, 20)
		sc.Mode.PRET = &spec.PretSpec{Threads: g.sbetween(n, 6), WheelWindow: mem + g.between(0, 10), MemLatency: mem}
	}
	sc.Tasks = g.tasks(n)
	return sc
}

func (g *gen) partition(l2 *spec.CacheSpec, n int) *spec.PartitionSpec {
	switch g.sn(4) {
	case 0:
		return &spec.PartitionSpec{Scheme: spec.PartTask}
	case 1:
		p := &spec.PartitionSpec{Scheme: spec.PartCore, Cores: 2}
		for i := 0; i < n; i++ {
			p.Assign = append(p.Assign, i%2)
		}
		return p
	case 2:
		return &spec.PartitionSpec{Scheme: spec.PartWays, Ways: g.sbetween(1, l2.Ways)}
	default:
		total := g.spick(2, 4)
		return &spec.PartitionSpec{Scheme: spec.PartBanks, Banks: g.sbetween(1, total), TotalBanks: total}
	}
}

// bus draws an arbiter over n cores with an explicit transaction
// latency, so TDMA slots can be sized against it.
func (g *gen) bus(n int) *spec.BusSpec {
	return g.arbiter([]string{spec.BusRoundRobin, spec.BusTDMA, spec.BusMBBA}[g.sn(3)], n)
}

func (g *gen) arbiter(policy string, n int) *spec.BusSpec {
	b := &spec.BusSpec{Policy: policy, Latency: g.between(8, 32)}
	switch policy {
	case spec.BusRoundRobin:
		b.Cores = g.spick(0, n, n+1)
	case spec.BusTDMA:
		for i := 0; i < n; i++ {
			b.Slots = append(b.Slots, spec.SlotSpec{Owner: i, Len: b.Latency + g.between(0, 16)})
		}
	default:
		for i := 0; i < n; i++ {
			b.Weights = append(b.Weights, g.between(1, 4))
		}
	}
	return b
}

// Topologies of the explore workload; every bus arbiter is one of them.
var exploreKinds = []string{spec.KindSolo, spec.KindJoint, spec.KindPartition,
	spec.BusRoundRobin, spec.BusTDMA, spec.BusMBBA}

// exploreScenario draws one exhaustive-exploration scenario on 1–8
// cores. Input domains and initial cache states are sized so the
// enumeration stays far below the default state budget: it is never
// truncated.
func (g *gen) exploreScenario(name, topo string) *spec.Scenario {
	sc := &spec.Scenario{Spec: spec.Version, Name: name, System: g.system(), Mode: spec.ModeSpec{Kind: spec.KindSolo}}
	n := g.sbetween(1, 8)
	switch topo {
	case spec.KindSolo:
		n = g.sbetween(1, 3)
	case spec.KindJoint:
		sc.Mode = spec.ModeSpec{Kind: spec.KindJoint, Model: spec.ModelAgeShift}
		n = g.sbetween(2, 4)
	case spec.KindPartition:
		n = g.sbetween(2, 4)
		sc.Mode = spec.ModeSpec{Kind: spec.KindPartition, Partition: g.partition(sc.System.L2, n)}
	default:
		sc.Mode = spec.ModeSpec{Kind: spec.KindBus, Bus: g.arbiter(topo, n)}
	}
	sc.Tasks = g.tasks(n)
	sc.Sim = &spec.SimSpec{MaxCycles: 50_000_000}
	e := &spec.ExploreSpec{InitStates: g.sbetween(1, 3)}
	// One input register with a small domain on the first task; the
	// kernels overwrite their working registers, so r13 widens the state
	// space without changing control flow.
	if g.sn(2) == 0 {
		vals := make([]int32, g.sbetween(1, 3))
		for i := range vals {
			vals[i] = int32(g.between(-8, 8))
		}
		e.Inputs = []spec.InputSpec{{Task: sc.Tasks[0].Name, Reg: "r13", Values: dedupe(vals)}}
	}
	sc.Explore = e
	return sc
}

func dedupe(vals []int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// encode renders a generated scenario; a generator that produces an
// invalid scenario is a bug in the benchmark.
func encode(sc *spec.Scenario) []byte {
	b, err := sc.Encode()
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated scenario %q is invalid: %v", sc.Name, err))
	}
	return b
}
