// Package parallel provides paratime's one fan-out primitive and the
// process-wide parallelism knob the CLI and the analysis service wire
// their flags into.
//
// Fan-out happens only at the grain of independent, coarse units of
// work: engine batches (one analysis per request), scenario and
// experiment batches, sweep points, and the priced states of an
// exhaustive exploration. Every unit runs the same single-threaded code
// the sequential loop runs and shares nothing mutable with its
// siblings; each index writes only its own slot of a result vector, and
// callers reduce in index order — after ForEach returns, or, for a
// streaming sweep, as each run of consecutive indices completes,
// serialized by one mutex (ForEach dispatches indices in ascending
// order). Results are therefore identical to the sequential loop at any
// worker count, which the GOMAXPROCS and PARATIME_PARALLELISM
// determinism tests enforce.
package parallel

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvVar is the environment variable consulted by Default when no
// explicit process-wide parallelism has been set.
const EnvVar = "PARATIME_PARALLELISM"

// defaultPar holds the explicit process-wide setting (0 = automatic).
var defaultPar atomic.Int64

// SetDefault fixes the process-wide parallelism used when a caller
// passes 0; n <= 0 restores automatic selection (PARATIME_PARALLELISM,
// else GOMAXPROCS). The CLI's -parallelism flag calls it once at
// startup.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultPar.Store(int64(n))
}

// Default returns the process-wide parallelism: the explicit SetDefault
// value if any, else PARATIME_PARALLELISM if set to a positive integer,
// else GOMAXPROCS.
func Default() int {
	if n := defaultPar.Load(); n > 0 {
		return int(n)
	}
	if v := os.Getenv(EnvVar); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Resolve maps a caller-supplied knob to an effective worker count:
// positive values pass through, everything else selects Default.
func Resolve(n int) int {
	if n > 0 {
		return n
	}
	return Default()
}

// ForEach runs f(0..n-1) across at most workers goroutines (<= 0 selects
// GOMAXPROCS; 1 runs inline on the caller's goroutine) and returns the
// error of the lowest index that failed, so the reported failure does
// not depend on scheduling. Indices are dispatched in ascending order
// and, after a failure, no further index is dispatched (in-flight calls
// complete); every index below the first failure therefore still runs,
// which keeps the returned error deterministic. Cancelling ctx also
// stops dispatch: once every in-flight call returns, ForEach reports
// ctx.Err() only if no dispatched index failed.
func ForEach(ctx context.Context, workers, n int, f func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	// Only the lowest failing index is kept, so memory stays O(workers)
	// however large n is.
	var (
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		failed   atomic.Bool
		wg       sync.WaitGroup
	)
	idx := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := f(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !failed.Load() && ctx.Err() == nil; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
