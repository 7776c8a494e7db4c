package main

import (
	"sync"

	"paratime/internal/cache"
	"paratime/internal/cfg"
	"paratime/internal/core"
	"paratime/internal/explore"
	"paratime/internal/flow"
	"paratime/internal/interfere"
	"paratime/internal/parallel"
	"paratime/internal/sim"
	"paratime/internal/spec"
)

// prober re-drives one traced operation's analysis through each layer's
// public entry point, in the order the engine runs them, and records a
// span per call. spec.Run hides these calls, so the traced run pays for
// them twice; that is what bench.trace_overhead reports. The probes are
// siblings, so core.prepare is inclusive of the cfg, flow and cache work
// it repeats internally.
type prober struct {
	t *tracer
	// prepared mirrors the engine memo: a key seen before skips straight
	// to costing, as a memo hit does. The server probes from concurrent
	// requests, so mu guards it.
	mu       sync.Mutex
	prepared map[string]*core.Analysis
}

// preparedCap bounds the probe memo like the engine memo it mirrors.
const preparedCap = 512

func newProber(t *tracer) *prober { return &prober{t: t, prepared: map[string]*core.Analysis{}} }

// scenario probes every layer the scenario's mode reaches. Probe errors
// are ignored: the real operation's result is what the checks judge.
func (p *prober) scenario(op, parent int64, sc *spec.Scenario) {
	t := p.t
	t.do(op, parent, "probe", func(id int64) {
		tasks := make([]core.Task, len(sc.Tasks))
		for i := range sc.Tasks {
			task, err := sc.Tasks[i].BuildTask()
			if err != nil {
				return
			}
			tasks[i] = task
		}
		sys, err := sc.System.BuildSystem()
		if err != nil {
			return
		}
		if sc.Mode.Kind == spec.KindSMT || sc.Mode.Kind == spec.KindPRET {
			return // dedicated core models: no cache or IPET layers
		}
		analyses := make([]*core.Analysis, 0, len(tasks))
		for _, task := range tasks {
			if a := p.analysis(op, id, task, sys); a != nil {
				analyses = append(analyses, a)
			}
		}
		if sc.Mode.Kind == spec.KindJoint && len(analyses) == len(tasks) {
			model := interfere.AgeShift
			if sc.Mode.Model == spec.ModelDirectMapped {
				model = interfere.DirectMapped
			}
			t.do(op, id, "interfere.joint", func(int64) { _, _ = interfere.AnalyzeJoint(analyses, model) })
		}
		if sc.Sim != nil {
			p.simulate(op, id, sc, sys, tasks)
		}
		if sc.Explore != nil {
			p.explore(op, id, sc, sys, tasks)
		}
	})
}

// analysis probes one task: key, then on a probe-memo miss the layers
// Prepare runs and Prepare itself, then costing and IPET.
func (p *prober) analysis(op, parent int64, task core.Task, sys core.SystemConfig) *core.Analysis {
	t := p.t
	var key string
	t.do(op, parent, "core.prepare_key", func(int64) { key = core.PrepareKey(task, sys) })
	p.mu.Lock()
	base, hit := p.prepared[key]
	p.mu.Unlock()
	if !hit {
		var g *cfg.Graph
		var cp *flow.ConstProp
		var ind map[*cfg.Loop]flow.Induction
		var err error
		t.do(op, parent, "cfg.build", func(int64) { g, err = cfg.Build(task.Prog) })
		if err != nil {
			return nil
		}
		t.do(op, parent, "flow.bound", func(int64) { cp, ind, err = flow.BoundAll(g, task.Facts) })
		if err != nil {
			return nil
		}
		t.do(op, parent, "cache.analyze", func(int64) {
			_, _ = cache.Analyze(g, cache.FetchStream(g), sys.Mem.L1I)
			_, _ = cache.Analyze(g, cache.DataStream(g, flow.AnalyzeAddrs(g, cp, ind)), sys.Mem.L1D)
		})
		t.do(op, parent, "core.prepare", func(int64) { base, err = core.Prepare(task, sys) })
		if err != nil {
			return nil
		}
		p.mu.Lock()
		if len(p.prepared) >= preparedCap {
			clear(p.prepared)
		}
		p.prepared[key] = base
		p.mu.Unlock()
	}
	a := base.Clone()
	a.Task, a.Sys = task, sys
	var err error
	t.do(op, parent, "core.compute_wcet", func(int64) { err = a.ComputeWCET() })
	if err != nil {
		return nil
	}
	t.count("ipet.pivots", float64(a.IPET.Pivots))
	t.count("ipet.bb_nodes", float64(a.IPET.Nodes))
	if a.IPET.FellBack {
		t.count("ipet.fellback", 1)
	}
	return a
}

// simulate probes the concrete simulator on the scenario's topology.
func (p *prober) simulate(op, parent int64, sc *spec.Scenario, sys core.SystemConfig, tasks []core.Task) {
	mem := sc.System.MemConfig()
	var systems []sim.System
	if sc.Mode.Kind == spec.KindSolo {
		for _, task := range tasks {
			systems = append(systems, sim.FromConfig(sys, mem, nil, false, task))
		}
	} else if s, err := coRun(sc, sys, mem, tasks); err == nil {
		systems = append(systems, s)
	}
	for _, s := range systems {
		p.t.do(op, parent, "sim.run", func(int64) {
			res, err := sim.Run(s, sc.Sim.MaxCycles)
			if err != nil {
				return
			}
			for _, st := range res.Stats {
				p.t.count("sim.retired", float64(st.Retired))
			}
		})
	}
}

// explore probes the exhaustive explorer on the scenario's topology, at
// the process default parallelism the real operation used.
func (p *prober) explore(op, parent int64, sc *spec.Scenario, sys core.SystemConfig, tasks []core.Task) {
	e := sc.Explore
	b := explore.Budget{MaxBranchDecisions: e.MaxBranchDecisions, InitStates: e.InitStates,
		MaxStates: e.MaxStates, MaxSteps: e.MaxSteps, MaxCycles: sc.Sim.MaxCycles}
	mem := sc.System.MemConfig()
	byName := map[string]int{}
	for i, task := range tasks {
		byName[task.Name] = i
	}
	inputs := func(remap []int) []explore.Input {
		var out []explore.Input
		for _, in := range e.Inputs {
			r, _ := spec.RegByName(in.Reg)
			for c, ti := range remap {
				if byName[in.Task] == ti {
					out = append(out, explore.Input{Core: c, Reg: r, Values: in.Values})
				}
			}
		}
		return out
	}
	run := func(s sim.System, ins []explore.Input) {
		p.t.do(op, parent, "explore.explore", func(int64) {
			res, err := explore.ExplorePar(s, ins, b, parallel.Resolve(0))
			if err != nil {
				return
			}
			p.t.count("explore.states", float64(res.States))
			if res.Truncated {
				p.t.count("explore.truncated", 1)
			}
		})
	}
	if sc.Mode.Kind == spec.KindSolo {
		for i, task := range tasks {
			run(sim.FromConfig(sys, mem, nil, false, task), inputs([]int{i}))
		}
		return
	}
	s, err := coRun(sc, sys, mem, tasks)
	if err != nil {
		return
	}
	remap := make([]int, len(tasks))
	for i := range remap {
		remap[i] = i
	}
	run(s, inputs(remap))
}
