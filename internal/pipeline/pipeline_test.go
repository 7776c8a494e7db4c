package pipeline

import (
	"math/rand"
	"testing"

	"paratime/internal/cfg"
	"paratime/internal/isa"
)

func flatTiming(fetch, mem int) TimingFn {
	return func(b *cfg.Block, i int) InstTiming { return InstTiming{Fetch: fetch, Mem: mem} }
}

func buildGraph(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	g, err := cfg.Build(isa.MustAssemble(t.Name(), src))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExecBlockStraightALU(t *testing.T) {
	g := buildGraph(t, "add r1, r2, r3\nadd r4, r5, r6\nadd r7, r8, r9\nhalt")
	pc := DefaultConfig()
	bt := ExecBlock(pc, g.Entry, flatTiming(1, 1), EntryContext())
	// Perfectly pipelined 5-stage: first instruction takes 5 cycles
	// (IF1 ID1 EX1 MEM1 WB1), each subsequent retires 1 cycle later.
	want := 5 + (g.Entry.Len() - 1)
	if bt.Dur != want {
		t.Errorf("dur = %d, want %d", bt.Dur, want)
	}
}

func TestExecBlockFetchLatencySerializes(t *testing.T) {
	g := buildGraph(t, "add r1, r2, r3\nadd r4, r5, r6\nhalt")
	pc := DefaultConfig()
	fast := ExecBlock(pc, g.Entry, flatTiming(1, 1), EntryContext())
	slow := ExecBlock(pc, g.Entry, flatTiming(5, 1), EntryContext())
	if slow.Dur <= fast.Dur {
		t.Errorf("5-cycle fetches should cost more: %d vs %d", slow.Dur, fast.Dur)
	}
	// With fetch 5 dominating every other stage, issue is fetch-bound:
	// the first instruction retires at 5+4 = 9 and each of the remaining
	// (the block is add, add, halt) retires 5 cycles after its
	// predecessor: 9 + 2*5 = 19.
	if slow.Dur != 19 {
		t.Errorf("fetch-bound dur = %d, want 19", slow.Dur)
	}
}

func TestExecBlockLoadUseStall(t *testing.T) {
	// ld r1; add r2, r1, r1: the add's EX must wait for the load's MEM.
	g1 := buildGraph(t, "li r3, 0x8000\nld r1, 0(r3)\nadd r2, r1, r1\nhalt")
	g2 := buildGraph(t, "li r3, 0x8000\nld r1, 0(r3)\nadd r2, r4, r4\nhalt")
	pc := DefaultConfig()
	slowMem := func(b *cfg.Block, i int) InstTiming { return InstTiming{Fetch: 1, Mem: 8} }
	dep := ExecBlock(pc, g1.Entry, slowMem, EntryContext())
	indep := ExecBlock(pc, g2.Entry, slowMem, EntryContext())
	if dep.Dur <= indep.Dur {
		t.Errorf("load-use dependence should stall: dep %d vs indep %d", dep.Dur, indep.Dur)
	}
}

func TestExecBlockMonotoneInContext(t *testing.T) {
	g := buildGraph(t, "add r1, r2, r3\nmul r4, r1, r1\nld r5, 0(r6)\nhalt")
	pc := DefaultConfig()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var a, b Context
		for i := range a.Avail {
			a.Avail[i] = -rng.Intn(10)
			b.Avail[i] = a.Avail[i] + rng.Intn(4) // b >= a pointwise
		}
		for i := range a.RegReady {
			a.RegReady[i] = -rng.Intn(10)
			b.RegReady[i] = a.RegReady[i] + rng.Intn(4)
		}
		clampCtx(&a)
		clampCtx(&b)
		ta := ExecBlock(pc, g.Entry, flatTiming(2, 3), a)
		tb := ExecBlock(pc, g.Entry, flatTiming(2, 3), b)
		if tb.Dur < ta.Dur {
			t.Fatalf("trial %d: larger context gave smaller cost (%d < %d)", trial, tb.Dur, ta.Dur)
		}
	}
}

func clampCtx(c *Context) {
	for i := range c.Avail {
		if c.Avail[i] > 0 {
			c.Avail[i] = 0
		}
	}
	for i := range c.RegReady {
		if c.RegReady[i] > 0 {
			c.RegReady[i] = 0
		}
	}
}

func TestExecBlockMonotoneInLatency(t *testing.T) {
	g := buildGraph(t, "ld r1, 0(r6)\nadd r2, r1, r1\nmul r3, r2, r2\nhalt")
	pc := DefaultConfig()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		f1, m1 := 1+rng.Intn(5), 1+rng.Intn(10)
		f2, m2 := f1+rng.Intn(5), m1+rng.Intn(10)
		t1 := ExecBlock(pc, g.Entry, flatTiming(f1, m1), EntryContext())
		t2 := ExecBlock(pc, g.Entry, flatTiming(f2, m2), EntryContext())
		if t2.Dur < t1.Dur {
			t.Fatalf("trial %d: larger latencies gave smaller cost", trial)
		}
		// Bounded-effect property: raising one instruction's mem latency by
		// delta cannot add more than delta to the cost.
		delta := (m2 - m1) + (f2-f1)*g.Entry.Len()
		if t2.Dur-t1.Dur > delta+(f2-f1)*g.Entry.Len() {
			t.Fatalf("trial %d: cost increase %d exceeds latency increase budget %d",
				trial, t2.Dur-t1.Dur, delta)
		}
	}
}

func TestContextJoinIsPointwiseMax(t *testing.T) {
	var a, b Context
	a.Avail[IF], b.Avail[IF] = -3, -1
	a.RegReady[2], b.RegReady[2] = -5, -9
	j := a.Join(b)
	if j.Avail[IF] != -1 || j.RegReady[2] != -5 {
		t.Errorf("join = %+v", j)
	}
}

func TestEdgeContextBranchPenalty(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 3
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	pc := DefaultConfig()
	var loopBlk *cfg.Block
	for _, b := range g.Blocks {
		if !b.IsExit() && b.Len() > 0 && b.Insts()[b.Len()-1].Op == isa.BNE {
			loopBlk = b
		}
	}
	bt := ExecBlock(pc, loopBlk, flatTiming(1, 1), EntryContext())
	var takenCtx, fallCtx Context
	for _, e := range loopBlk.Succs {
		if e.Kind == cfg.EdgeTaken {
			takenCtx = EdgeContext(pc, bt, e)
		} else {
			fallCtx = EdgeContext(pc, bt, e)
		}
	}
	if takenCtx.Avail[IF] <= fallCtx.Avail[IF] {
		t.Errorf("taken edge should delay fetch: taken %d vs fall %d",
			takenCtx.Avail[IF], fallCtx.Avail[IF])
	}
}

func TestAnalyzeCostsLoop(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 3
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	pc := DefaultConfig()
	res, err := Compile(g).AnalyzeCosts(pc, flatTiming(1, 1), flatTiming(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Blocks {
		if b.IsExit() {
			if res.Cost(b.ID) != 0 {
				t.Errorf("exit cost = %d, want 0", res.Cost(b.ID))
			}
			continue
		}
		if res.Cost(b.ID) < b.Len() {
			t.Errorf("block %v cost %d below instruction count", b, res.Cost(b.ID))
		}
	}
	// The loop block's in-context must reflect the taken-branch redirect:
	// its cost from the back edge exceeds the pure pipeline minimum.
	var loopBlk *cfg.Block
	for _, b := range g.Blocks {
		if !b.IsExit() && len(b.Preds) == 2 {
			loopBlk = b
		}
	}
	if loopBlk == nil {
		t.Fatal("no loop block")
	}
	loopIn, reached := res.In(loopBlk.ID)
	if !reached {
		t.Fatal("loop block unreached by the context fixpoint")
	}
	if loopIn.Avail[IF] <= ctxClamp {
		t.Errorf("loop in-context unexpectedly bottom: %+v", loopIn)
	}
}

func TestAnalyzeCostsWorstVsBase(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 3
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	pc := DefaultConfig()
	worst := flatTiming(10, 10)
	base := flatTiming(1, 1)
	resW, err := Compile(g).AnalyzeCosts(pc, worst, worst)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Compile(g).AnalyzeCosts(pc, worst, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Blocks {
		if resB.Cost(b.ID) > resW.Cost(b.ID) {
			t.Errorf("base-priced cost exceeds worst-priced for %v", b)
		}
	}
}

func TestSrcDstRegs(t *testing.T) {
	if rs := SrcRegs(isa.Inst{Op: isa.ST, Rs1: 2, Rs2: 3}); len(rs) != 2 {
		t.Errorf("ST sources = %v", rs)
	}
	if rs := SrcRegs(isa.Inst{Op: isa.RET}); len(rs) != 1 || rs[0] != isa.RA {
		t.Errorf("RET sources = %v", rs)
	}
	if _, ok := DstReg(isa.Inst{Op: isa.ST}); ok {
		t.Error("ST has no destination")
	}
	if rd, ok := DstReg(isa.Inst{Op: isa.CALL}); !ok || rd != isa.RA {
		t.Error("CALL writes RA")
	}
	if _, ok := DstReg(isa.Inst{Op: isa.ADD, Rd: isa.R0}); ok {
		t.Error("writes to R0 are architectural no-ops")
	}
}

func TestExitBlockPassThrough(t *testing.T) {
	g := buildGraph(t, "halt")
	pc := DefaultConfig()
	var ctx Context
	ctx.Avail[EX] = -7
	bt := ExecBlock(pc, g.Exit, flatTiming(1, 1), ctx)
	if bt.Dur != 0 || bt.Out != ctx {
		t.Errorf("exit block should pass context through: %+v", bt)
	}
}
