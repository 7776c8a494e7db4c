package core_test

import (
	"testing"

	"paratime/internal/cache"
	"paratime/internal/cfg"
	"paratime/internal/core"
	"paratime/internal/flow"
	"paratime/internal/isa"
	"paratime/internal/workload"
)

// keyProgram exercises every field Program.Fingerprint hashes, with the
// signs and widths that a formatter rewrite is most likely to get wrong:
// negative immediates, a maximal target, several labels (sorted by the
// key), a negative data word, and data labels (which the key ignores).
func keyProgram() *isa.Program {
	return &isa.Program{
		Name: "keyprog",
		Base: 0x2000,
		Insts: []isa.Inst{
			{Op: isa.LI, Rd: isa.R1, Imm: -7},
			{Op: isa.ADDI, Rd: isa.R2, Rs1: isa.R1, Imm: -2147483648},
			{Op: isa.LD, Rd: isa.R3, Rs1: isa.R2, Imm: -4},
			{Op: isa.ADD, Rd: isa.R4, Rs1: isa.R3, Rs2: isa.R2},
			{Op: isa.BNE, Rs1: isa.R4, Rs2: isa.R0, Target: 0xFFFFFFFC},
			{Op: isa.J, Target: 0x2000},
			{Op: isa.ST, Rs1: isa.R2, Rs2: isa.R4, Imm: 2147483647},
			{Op: isa.HALT},
		},
		Labels:     map[string]int{"zeta": 5, "loop": 2, "entry": 0, "a/b c": 3},
		Data:       map[uint32]int32{0x8004: -1, 0x8000: 42, 0xFFFFFFF0: -2147483648},
		DataLabels: map[string]uint32{"arr": 0x8000, "end": 0xFFFFFFF0},
	}
}

// keyFacts carries loop bounds and one extra constraint of every term
// shape (edge, block and constant).
func keyFacts() *flow.Facts {
	f := flow.NewFacts().Bound("loop", 12).Bound("inner", 3).Bound("a=b;c", 1)
	f.Constrain(flow.Constraint{
		Name: "excl",
		Rel:  flow.RelLE,
		RHS:  -5,
		Terms: []flow.Term{
			{Coef: 2, Edge: &cfg.Edge{ID: 7}},
			{Coef: -1, Block: &cfg.Block{ID: 11}},
			{Coef: 4},
		},
	})
	f.Constrain(flow.Constraint{Name: "eq", Rel: flow.RelEQ, RHS: 9})
	return f
}

// TestKeyBytesPinned pins program fingerprints and full Prepare keys to
// the bytes recorded before their encoders moved from fmt to strconv:
// memo keys must not change across that rewrite, or every persisted key
// and every cross-version comparison silently misses.
func TestKeyBytesPinned(t *testing.T) {
	suite := workload.Suite()
	progs := map[string]string{
		"keyprog":    "db55f9877a8d247bbca15acdc1a9fb6b7ef2b321aa33f465f72a6e739c8863eb",
		"fib24":      "7c47d5e4e585bfe7e0703e924713a2aa4d3a7fcf6943278d9cbdf09907c6849c",
		"matmult4":   "9cc6f4c48f3f9fae02e01b7bbbf701056fe9051a2a8d6472c0fc2c2f9c8556dc",
		"bsort12":    "40b6286405a14e9be83a30317939de12bad67547352147fcd85f46ab1ecf696d",
		"crc16":      "7b9ed5d6add62bf485ec7f06ad345b37b428d9eaed07e45cd127b1e7f2d94c82",
		"fir16x4":    "4fe2e1c0e9bdc78cbe05c0ac6653e40a8ab2aad061c6ec0b3a0422d0ee958321",
		"memcopy32":  "5c0a77a938556fcf1336c37d9ad7af24724a17763e30a56e460e035697c53830",
		"countbits8": "e566f858b4e948dd2c435fc840ecd787c7f83147bcb835c2acb063321ea69ce1",
	}
	got := map[string]string{"keyprog": keyProgram().Fingerprint()}
	for _, tk := range suite {
		got[tk.Name] = tk.Prog.Fingerprint()
	}
	for name, want := range progs {
		if got[name] != want {
			t.Errorf("Program(%s).Fingerprint() = %q, want %q", name, got[name], want)
		}
	}

	noL2 := core.DefaultSystem()
	noL2.Mem.L2 = nil
	oddL2 := core.DefaultSystem()
	oddL2.Mem.L1I = cache.Config{Name: "i,x", Sets: 1, Ways: 255, LineBytes: 4, HitLatency: 0, MissPenalty: -3}
	l2 := cache.Config{Sets: 1024, Ways: 16, LineBytes: 128, HitLatency: 12, MissPenalty: 200}
	oddL2.Mem.L2 = &l2
	keyTask := core.Task{Name: "keyprog", Prog: keyProgram(), Facts: keyFacts()}
	for _, tc := range []struct {
		name string
		task core.Task
		sys  core.SystemConfig
		want string
	}{
		{"keyprog/default", keyTask, core.DefaultSystem(), "db55f9877a8d247bbca15acdc1a9fb6b7ef2b321aa33f465f72a6e739c8863eb|b:a=b;c=1;b:inner=3;b:loop=12;c:excl,0,-5|2*e7|-1*b11|4;c:eq,2,9;|{Name:L1I Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L1D Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L2 Sets:32 Ways:4 LineBytes:32 HitLatency:4 MissPenalty:20}"},
		{"keyprog/noL2", keyTask, noL2, "db55f9877a8d247bbca15acdc1a9fb6b7ef2b321aa33f465f72a6e739c8863eb|b:a=b;c=1;b:inner=3;b:loop=12;c:excl,0,-5|2*e7|-1*b11|4;c:eq,2,9;|{Name:L1I Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L1D Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|"},
		{"keyprog/oddL2", keyTask, oddL2, "db55f9877a8d247bbca15acdc1a9fb6b7ef2b321aa33f465f72a6e739c8863eb|b:a=b;c=1;b:inner=3;b:loop=12;c:excl,0,-5|2*e7|-1*b11|4;c:eq,2,9;|{Name:i,x Sets:1 Ways:255 LineBytes:4 HitLatency:0 MissPenalty:-3}|{Name:L1D Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name: Sets:1024 Ways:16 LineBytes:128 HitLatency:12 MissPenalty:200}"},
		{"keyprog/nilFacts", core.Task{Name: "k", Prog: keyProgram()}, noL2, "db55f9877a8d247bbca15acdc1a9fb6b7ef2b321aa33f465f72a6e739c8863eb||{Name:L1I Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L1D Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|"},
		{"keyprog/emptyFacts", core.Task{Name: "k", Prog: keyProgram(), Facts: flow.NewFacts()}, noL2, "db55f9877a8d247bbca15acdc1a9fb6b7ef2b321aa33f465f72a6e739c8863eb||{Name:L1I Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L1D Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|"},
		{"fib24", suite[0], core.DefaultSystem(), "7c47d5e4e585bfe7e0703e924713a2aa4d3a7fcf6943278d9cbdf09907c6849c||{Name:L1I Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L1D Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L2 Sets:32 Ways:4 LineBytes:32 HitLatency:4 MissPenalty:20}"},
		{"matmult4", suite[1], core.DefaultSystem(), "9cc6f4c48f3f9fae02e01b7bbbf701056fe9051a2a8d6472c0fc2c2f9c8556dc|b:iloop=4;b:jloop=4;b:kloop=4;|{Name:L1I Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L1D Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L2 Sets:32 Ways:4 LineBytes:32 HitLatency:4 MissPenalty:20}"},
		{"bsort12", suite[2], core.DefaultSystem(), "40b6286405a14e9be83a30317939de12bad67547352147fcd85f46ab1ecf696d||{Name:L1I Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L1D Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L2 Sets:32 Ways:4 LineBytes:32 HitLatency:4 MissPenalty:20}"},
		{"crc16", suite[3], noL2, "7b9ed5d6add62bf485ec7f06ad345b37b428d9eaed07e45cd127b1e7f2d94c82||{Name:L1I Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L1D Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|"},
		{"fir16x4", suite[4], core.DefaultSystem(), "4fe2e1c0e9bdc78cbe05c0ac6653e40a8ab2aad061c6ec0b3a0422d0ee958321|b:sample=16;b:tap=4;|{Name:L1I Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L1D Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L2 Sets:32 Ways:4 LineBytes:32 HitLatency:4 MissPenalty:20}"},
		{"memcopy32", suite[5], core.DefaultSystem(), "5c0a77a938556fcf1336c37d9ad7af24724a17763e30a56e460e035697c53830||{Name:L1I Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L1D Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name:L2 Sets:32 Ways:4 LineBytes:32 HitLatency:4 MissPenalty:20}"},
		{"countbits8", suite[6], oddL2, "e566f858b4e948dd2c435fc840ecd787c7f83147bcb835c2acb063321ea69ce1||{Name:i,x Sets:1 Ways:255 LineBytes:4 HitLatency:0 MissPenalty:-3}|{Name:L1D Sets:16 Ways:2 LineBytes:16 HitLatency:1 MissPenalty:4}|{Name: Sets:1024 Ways:16 LineBytes:128 HitLatency:12 MissPenalty:200}"},
	} {
		if got := core.PrepareKey(tc.task, tc.sys); got != tc.want {
			t.Errorf("PrepareKey(%s) = %q, want %q", tc.name, got, tc.want)
		}
	}
}
