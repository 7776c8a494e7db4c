package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEach pins the fan-out contract at every worker count,
// including the inline (1) and GOMAXPROCS (0) selections: every index
// runs exactly once, the lowest failing index's error wins, dispatch
// stops after a failure or a cancellation, and ctx.Err() is reported
// only when no index failed.
func TestForEach(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		// precancel cancels the context before ForEach starts; cancel(i)
		// reports whether index i cancels it; fail returns i's error.
		precancel bool
		cancel    func(i int) bool
		fail      func(i int) error
		// gate, when positive, holds every index above it until index
		// gate has run, so the trigger cannot be descheduled while its
		// siblings drain all n indices.
		gate    int
		wantErr string
		// ran checks how many indices were dispatched.
		ran func(got int64) bool
	}{
		{name: "coverage", n: 1000, ran: func(got int64) bool { return got == 1000 }},
		{name: "empty", n: 0, fail: func(int) error { return errors.New("never") }, ran: func(got int64) bool { return got == 0 }},
		{
			name: "lowest index wins", n: 64,
			fail: func(i int) error {
				switch i {
				case 3:
					return errors.New("a")
				case 40:
					return errors.New("b")
				}
				return nil
			},
			wantErr: "a",
			ran:     func(got int64) bool { return got >= 4 },
		},
		{
			name: "stop on failure", n: 10000,
			fail: func(i int) error {
				if i >= 17 {
					return fmt.Errorf("boom %d", i)
				}
				return nil
			},
			wantErr: "boom 17",
			ran:     func(got int64) bool { return got >= 18 && got < 10000 },
		},
		{
			name: "canceled before start", n: 100,
			precancel: true,
			wantErr:   context.Canceled.Error(),
			ran:       func(got int64) bool { return got == 0 },
		},
		{
			name: "canceled mid-flight", n: 10000,
			cancel:  func(i int) bool { return i == 3 },
			gate:    3,
			wantErr: context.Canceled.Error(),
			ran:     func(got int64) bool { return got >= 4 && got < 10000 },
		},
		{
			name: "failure outranks cancellation", n: 10000,
			cancel: func(i int) bool { return i == 5 },
			fail: func(i int) error {
				if i == 2 {
					return errors.New("task 2")
				}
				return nil
			},
			gate:    5,
			wantErr: "task 2",
			ran:     func(got int64) bool { return got >= 3 && got < 10000 },
		},
	} {
		for _, workers := range []int{0, 1, 2, 3, 8, 100} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				ctx, stop := context.WithCancel(context.Background())
				defer stop()
				if tc.precancel {
					stop()
				}
				hits := make([]int32, tc.n)
				var ran atomic.Int64
				gateRan := make(chan struct{})
				err := ForEach(ctx, workers, tc.n, func(i int) error {
					if tc.gate > 0 && i > tc.gate {
						<-gateRan
					}
					atomic.AddInt32(&hits[i], 1)
					ran.Add(1)
					if tc.cancel != nil && tc.cancel(i) {
						stop()
					}
					if tc.gate > 0 && i == tc.gate {
						close(gateRan)
					}
					if tc.fail != nil {
						return tc.fail(i)
					}
					return nil
				})
				if got := fmt.Sprint(err); (tc.wantErr == "" && err != nil) || (tc.wantErr != "" && got != tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				if !tc.ran(ran.Load()) {
					t.Errorf("%d indices dispatched", ran.Load())
				}
				for i, h := range hits {
					if h > 1 {
						t.Fatalf("index %d ran %d times", i, h)
					}
				}
			})
		}
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int32, n)
			if err := ForEach(context.Background(), workers, n, func(i int) error {
				atomic.AddInt32(&hits[i], 1)
				return nil
			}); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForResultsMatchSequential(t *testing.T) {
	const n = 500
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 8} {
		got := make([]int, n)
		if err := ForEach(context.Background(), workers, n, func(i int) error {
			got[i] = i * i
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%d want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForErrLowestIndexWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 4, 16} {
		// Indices 3 and 40 fail; the reported error must always be
		// index 3's regardless of schedule.
		err := ForEach(context.Background(), workers, 64, func(i int) error {
			switch i {
			case 3:
				return errA
			case 40:
				return errB
			}
			return nil
		})
		if err != errA {
			t.Fatalf("workers=%d: got %v, want errA", workers, err)
		}
	}
}

func TestForErrNoError(t *testing.T) {
	if err := ForEach(context.Background(), 4, 32, func(i int) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := ForEach(context.Background(), 4, 0, func(i int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0 must not run f: %v", err)
	}
}

// TestForEachMemoryIsPerWorker: ForEach's own footprint does not grow
// with n. A per-index error slot would cost 16 B × 2^20 = 16 MiB here;
// the lowest-failure record costs nothing per index.
func TestForEachMemoryIsPerWorker(t *testing.T) {
	const n = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ForEach(context.Background(), 4, n, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("ForEach over %d indices allocated %d bytes, want under 1 MiB", n, got)
	}
}

func TestDefaultAndResolve(t *testing.T) {
	t.Setenv(EnvVar, "")
	SetDefault(0)
	defer SetDefault(0)
	if d := Default(); d < 1 {
		t.Fatalf("Default() = %d, want >= 1", d)
	}
	SetDefault(3)
	if d := Default(); d != 3 {
		t.Fatalf("after SetDefault(3): Default() = %d", d)
	}
	if r := Resolve(5); r != 5 {
		t.Fatalf("Resolve(5) = %d", r)
	}
	if r := Resolve(0); r != 3 {
		t.Fatalf("Resolve(0) = %d, want 3 (SetDefault)", r)
	}
	SetDefault(0)
	t.Setenv(EnvVar, "7")
	if d := Default(); d != 7 {
		t.Fatalf("env=7: Default() = %d", d)
	}
	t.Setenv(EnvVar, "bogus")
	if d := Default(); d < 1 {
		t.Fatalf("bogus env: Default() = %d, want >= 1", d)
	}
}
