package core

import (
	"fmt"
	"testing"

	"paratime/internal/cache"
	"paratime/internal/isa"
)

func task(t *testing.T, src string) Task {
	t.Helper()
	return Task{Name: t.Name(), Prog: isa.MustAssemble(t.Name(), src)}
}

const loopSrc = `
        li   r1, 16
        li   r3, 0x8000
loop:   ld   r2, 0(r3)
        add  r4, r4, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
.data 0x8000
        .word 7
`

func TestAnalyzeBasic(t *testing.T) {
	a, err := Analyze(task(t, loopSrc), DefaultSystem())
	if err != nil {
		t.Fatal(err)
	}
	if a.WCET <= 0 {
		t.Fatalf("WCET = %d", a.WCET)
	}
	// 16 iterations of a ~4-instruction loop: the WCET must at least cover
	// the retired instruction count.
	if a.WCET < 16*4 {
		t.Errorf("WCET %d implausibly small", a.WCET)
	}
	if a.ClassSummary() == "" {
		t.Error("empty class summary")
	}
}

func TestWCETMonotoneInMemLatency(t *testing.T) {
	fast := DefaultSystem()
	slow := DefaultSystem()
	slow.Mem.MemLatency = 200
	af, err := Analyze(task(t, loopSrc), fast)
	if err != nil {
		t.Fatal(err)
	}
	as, err := Analyze(task(t, loopSrc), slow)
	if err != nil {
		t.Fatal(err)
	}
	if as.WCET < af.WCET {
		t.Errorf("slower memory reduced WCET: %d < %d", as.WCET, af.WCET)
	}
}

func TestWCETMonotoneInBusDelay(t *testing.T) {
	prev := int64(-1)
	for _, d := range []int{0, 3, 9, 27} {
		sys := DefaultSystem()
		sys.Mem.BusDelay = d
		a, err := Analyze(task(t, loopSrc), sys)
		if err != nil {
			t.Fatal(err)
		}
		if a.WCET < prev {
			t.Errorf("bus delay %d reduced WCET to %d (prev %d)", d, a.WCET, prev)
		}
		prev = a.WCET
	}
}

func TestPersistenceTightensWCET(t *testing.T) {
	// Without persistence (1-way tiny L1I forcing conflict misses), the
	// loop pays memory on many fetches; with a fitting L1I it pays once.
	small := DefaultSystem()
	small.Mem.L1I = cache.Config{Name: "L1I", Sets: 1, Ways: 1, LineBytes: 8, HitLatency: 1, MissPenalty: 4}
	big := DefaultSystem()
	aSmall, err := Analyze(task(t, loopSrc), small)
	if err != nil {
		t.Fatal(err)
	}
	aBig, err := Analyze(task(t, loopSrc), big)
	if err != nil {
		t.Fatal(err)
	}
	if aBig.WCET >= aSmall.WCET {
		t.Errorf("fitting cache should beat thrashing cache: %d vs %d", aBig.WCET, aSmall.WCET)
	}
}

func TestNoL2Config(t *testing.T) {
	sys := DefaultSystem()
	sys.Mem.L2 = nil
	a, err := Analyze(task(t, loopSrc), sys)
	if err != nil {
		t.Fatal(err)
	}
	if a.L2 != nil || a.Merged != nil {
		t.Error("L2 artefacts built without L2 config")
	}
	if a.WCET <= 0 {
		t.Error("WCET not computed")
	}
}

func TestMergedStreamAlignment(t *testing.T) {
	a, err := Prepare(task(t, loopSrc), DefaultSystem())
	if err != nil {
		t.Fatal(err)
	}
	// Every fetch and data ref must map into the merged stream, and the
	// merged refs must be identical payloads.
	for _, b := range a.G.Blocks {
		if b.IsExit() {
			continue
		}
		for i := 0; i < b.Len(); i++ {
			fid := cache.RefID{Block: b.ID, Seq: i}
			mid, ok := a.MergedID(FromL1I, fid)
			if !ok {
				t.Fatalf("fetch ref %+v unmapped", fid)
			}
			got, want := a.Merged.Refs[b.ID][mid.Seq], a.IStream.Refs[b.ID][i]
			if got.Exact != want.Exact || got.Addr != want.Addr || got.Unknown != want.Unknown {
				t.Fatalf("merged fetch ref mismatch at %+v", fid)
			}
		}
		dRefs := a.DStream.Refs[b.ID]
		for s := range dRefs {
			did := cache.RefID{Block: b.ID, Seq: s}
			mid, ok := a.MergedID(FromL1D, did)
			if !ok {
				t.Fatalf("data ref %+v unmapped", did)
			}
			got := a.Merged.Refs[b.ID][mid.Seq]
			want := dRefs[s]
			if got.Exact != want.Exact || got.Addr != want.Addr || got.Unknown != want.Unknown {
				t.Fatalf("merged data ref mismatch at %+v", did)
			}
		}
	}
}

func TestBypassAllEqualsNoL2(t *testing.T) {
	sys := DefaultSystem()
	a, err := Prepare(task(t, loopSrc), sys)
	if err != nil {
		t.Fatal(err)
	}
	// Bypass every merged ref: all L1 misses go straight to memory, so the
	// analysis must coincide exactly with an L2-less configuration.
	for _, b := range a.G.Blocks {
		for seq := range a.Merged.Refs[b.ID] {
			mid := cache.RefID{Block: b.ID, Seq: seq}
			a.Bypass[mid] = true
			a.CAC[mid] = cache.Never
		}
	}
	if err := a.RecomputeL2(); err != nil {
		t.Fatal(err)
	}
	if err := a.ComputeWCET(); err != nil {
		t.Fatal(err)
	}
	noL2 := sys
	noL2.Mem.L2 = nil
	ref, err := Analyze(task(t, loopSrc), noL2)
	if err != nil {
		t.Fatal(err)
	}
	if a.WCET != ref.WCET {
		t.Errorf("bypass-all WCET %d != no-L2 WCET %d", a.WCET, ref.WCET)
	}
}

func TestAnalyzeRejectsUnboundedLoop(t *testing.T) {
	src := `
        li   r3, 0x8000
        ld   r1, 0(r3)
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`
	if _, err := Analyze(task(t, src), DefaultSystem()); err == nil {
		t.Fatal("unbounded loop accepted")
	}
}

func TestRepeatedComputeIsStable(t *testing.T) {
	a, err := Prepare(task(t, loopSrc), DefaultSystem())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ComputeWCET(); err != nil {
		t.Fatal(err)
	}
	w1 := a.WCET
	if err := a.ComputeWCET(); err != nil {
		t.Fatal(err)
	}
	if a.WCET != w1 {
		t.Errorf("recompute changed WCET: %d -> %d", w1, a.WCET)
	}
}

func TestCloneSharesSkeleton(t *testing.T) {
	a, err := Prepare(task(t, loopSrc), DefaultSystem())
	if err != nil {
		t.Fatal(err)
	}
	if a.Skel == nil {
		t.Fatal("Prepare did not compile the IPET skeleton")
	}
	c := a.Clone()
	if c.Skel != a.Skel {
		t.Error("Clone must share the compiled skeleton (immutable prefix)")
	}
	// Both the original and the clone must solve through the shared
	// skeleton without interference.
	if err := a.ComputeWCET(); err != nil {
		t.Fatal(err)
	}
	if err := c.ComputeWCET(); err != nil {
		t.Fatal(err)
	}
	if a.WCET != c.WCET {
		t.Errorf("clone WCET %d != original %d", c.WCET, a.WCET)
	}
}

// TestCacheKeyMatchesPlusV: PrepareKey's cache.Config encoder must write
// exactly what fmt's %+v does, so a field added to cache.Config (which
// %+v would pick up) fails here until the encoder reads it too.
func TestCacheKeyMatchesPlusV(t *testing.T) {
	for _, c := range []cache.Config{
		{},
		DefaultSystem().Mem.L1I,
		*DefaultSystem().Mem.L2,
		{Name: "a b,{}:", Sets: -1, Ways: 255, LineBytes: 1 << 30, HitLatency: -2147483648, MissPenalty: 9223372036854775807},
	} {
		if got, want := string(appendCacheKey(nil, c)), fmt.Sprintf("%+v", c); got != want {
			t.Errorf("appendCacheKey = %q, want %q", got, want)
		}
	}
}
