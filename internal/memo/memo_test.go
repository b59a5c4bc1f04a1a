package memo

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/stagerr"
)

// waitFor yields until cond holds; the tests use it to wait for a goroutine
// to reach a lookup without sleeping.
func waitFor(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

// blockingFill returns a fill that counts its runs and returns (v, err) once
// release is closed.
func blockingFill(runs *atomic.Int32, release <-chan struct{}, v int, err error) func() (int, error) {
	return func() (int, error) {
		runs.Add(1)
		<-release
		return v, err
	}
}

// countFillChecks installs a registry that counts cache.fill crossings but
// never fires, and returns it.
func countFillChecks(t *testing.T) *faults.Registry {
	t.Helper()
	reg := faults.NewRegistry(1, map[faults.Point]uint64{faults.CacheFill: 1 << 62})
	faults.Enable(reg)
	t.Cleanup(faults.Disable)
	return reg
}

func TestConcurrentMissesShareOneFill(t *testing.T) {
	const n = 8
	c := New[string, int](0)
	var runs atomic.Int32
	release := make(chan struct{})
	fill := blockingFill(&runs, release, 42, nil)
	var wg sync.WaitGroup
	got := make([]int, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do(context.Background(), "k", fill)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	waitFor(func() bool { st := c.Stats(); return st.Hits+st.Misses == n })
	close(release)
	wg.Wait()
	if r := runs.Load(); r != 1 {
		t.Fatalf("%d concurrent misses ran %d fills, want 1", n, r)
	}
	for i, v := range got {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	if st := c.Stats(); st != (Stats{Hits: n - 1, Misses: 1, Entries: 1}) {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUBoundAndCounters(t *testing.T) {
	c := New[string, int](2)
	var runs int
	do := func(k string) {
		t.Helper()
		if _, err := c.Do(nil, k, func() (int, error) { runs++; return len(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	do("a")
	do("b")
	do("a") // hit; b is now least recently used
	do("c") // evicts b
	if st := c.Stats(); st != (Stats{Hits: 1, Misses: 3, Evictions: 1, Entries: 2}) {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses / 1 eviction / 2 entries", st)
	}
	do("a") // still memoized
	do("b") // recomputed; evicts c
	if st := c.Stats(); st != (Stats{Hits: 2, Misses: 4, Evictions: 2, Entries: 2}) {
		t.Fatalf("stats = %+v, want 2 hits / 4 misses / 2 evictions / 2 entries", st)
	}
	if runs != 4 || c.Stats().Entries != 2 {
		t.Fatalf("fills = %d, len = %d, want 4 and 2", runs, c.Stats().Entries)
	}
	if New[string, int](-1).max != 0 {
		t.Error("a negative bound must mean unbounded")
	}
}

func TestContextErrorEvicted(t *testing.T) {
	c := New[string, int](0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Do(ctx, "k", func() (int, error) { return 0, ctx.Err() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("aborted fill memoized (%d entries)", n)
	}
	if errs := c.Errors(); len(errs) != 0 {
		t.Fatalf("memoized errors = %v, want none", errs)
	}
	v, err := c.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("refill = %d, %v; want 7", v, err)
	}
}

// TestDeadWaiterGetsOwnError: a waiter whose own context is done when the
// shared fill aborts gets its own context's error, not the computing peer's.
func TestDeadWaiterGetsOwnError(t *testing.T) {
	c := New[string, int](0)
	var runs atomic.Int32
	release := make(chan struct{})
	peer, cancel := context.WithCancel(context.Background())
	cancel()
	peerErr := make(chan error, 1)
	go func() {
		_, err := c.Do(peer, "k", blockingFill(&runs, release, 0, context.Canceled))
		peerErr <- err
	}()
	waitFor(func() bool { return runs.Load() == 1 })

	own, cancelOwn := context.WithTimeout(context.Background(), 0)
	defer cancelOwn()
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(own, "k", func() (int, error) { t.Error("waiter ran its own fill"); return 0, nil })
		done <- err
	}()
	waitFor(func() bool { return c.Stats().Hits == 1 })
	close(release)
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want its own context.DeadlineExceeded", err)
	}
	if err := <-peerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("peer err = %v, want context.Canceled", err)
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("aborted fill memoized (%d entries)", n)
	}
}

// TestLiveWaiterRefillsAfterPeerCancellation: a waiter whose context is live
// when the shared fill aborts runs a fresh fill of its own, and that result
// is memoized.
func TestLiveWaiterRefillsAfterPeerCancellation(t *testing.T) {
	c := New[string, int](0)
	var runs atomic.Int32
	release := make(chan struct{})
	peer, cancel := context.WithCancel(context.Background())
	cancel()
	go c.Do(peer, "k", blockingFill(&runs, release, 0, context.Canceled))
	waitFor(func() bool { return runs.Load() == 1 })

	var own atomic.Int32
	done := make(chan int, 1)
	go func() {
		v, err := c.Do(context.Background(), "k", func() (int, error) { own.Add(1); return 9, nil })
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	waitFor(func() bool { return c.Stats().Hits == 1 })
	close(release)
	if v := <-done; v != 9 || own.Load() != 1 {
		t.Fatalf("waiter got %d after %d own fills, want 9 after 1", v, own.Load())
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 misses (aborted + refill) and 1 entry", st)
	}
	if v, _ := c.Do(nil, "k", func() (int, error) { return 0, errors.New("refilled again") }); v != 9 {
		t.Fatalf("refill not memoized: got %d", v)
	}
}

// TestRepeatedCancellationComputesUncached: a live caller that sees a third
// fill in a row abort with a context error (each run under a cancelled
// context that is not the caller's) computes uncached, memoizing nothing and
// without crossing the cache.fill fault point.
func TestRepeatedCancellationComputesUncached(t *testing.T) {
	reg := countFillChecks(t)
	c := New[string, int](0)
	runs := 0
	v, err := c.Do(context.Background(), "k", func() (int, error) {
		runs++
		if runs <= maxPeerCancellations {
			return 0, stagerr.Wrap(stagerr.Retime, context.Canceled)
		}
		return 5, nil
	})
	if err != nil || v != 5 {
		t.Fatalf("Do = %d, %v; want 5 from the uncached fill", v, err)
	}
	if runs != maxPeerCancellations+1 {
		t.Fatalf("fills = %d, want %d cached + 1 uncached", runs, maxPeerCancellations)
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("uncached result memoized (%d entries)", n)
	}
	st := reg.Stats()[faults.CacheFill]
	if st.Checks != maxPeerCancellations || st.Fired != 0 {
		t.Fatalf("cache.fill crossed %d times (%d fired), want %d: once per cached fill only",
			st.Checks, st.Fired, maxPeerCancellations)
	}
}

func TestInjectedFaultEvicted(t *testing.T) {
	faults.Enable(faults.NewRegistry(1, map[faults.Point]uint64{faults.CacheFill: 1}))
	t.Cleanup(faults.Disable)
	c := New[string, int](0)
	_, err := c.Do(nil, "k", func() (int, error) { t.Error("fill ran past a fired cache.fill"); return 0, nil })
	if !faults.IsInjected(err) {
		t.Fatalf("err = %v, want an injected fault", err)
	}
	if st, _ := stagerr.StageOf(err); st != stagerr.Cache {
		t.Fatalf("stage = %q, want cache", st)
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("injected fault memoized (%d entries)", n)
	}
	faults.Disable()

	// A fault injected inside the fill (a deeper fault point) is evicted too.
	injected := &faults.InjectedError{Point: faults.SkeletonBuild, N: 1}
	if _, err := c.Do(nil, "k", func() (int, error) { return 0, injected }); !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the fill's injected fault", err)
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("fill's injected fault memoized (%d entries)", n)
	}
	if v, err := c.Do(nil, "k", func() (int, error) { return 3, nil }); err != nil || v != 3 {
		t.Fatalf("recompute = %d, %v; want 3", v, err)
	}
}

// TestPanickingFillNotMemoized: a fill that panics re-panics in its own
// goroutine, hands every waiter sharing it a cache-stage error (never the
// zero value with a nil error), and leaves nothing memoized, so the next
// lookup runs the fill again.
func TestPanickingFillNotMemoized(t *testing.T) {
	c := New[string, *int](0)
	var runs atomic.Int32
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(nil, "k", func() (*int, error) {
			runs.Add(1)
			<-release
			panic("boom")
		})
	}()
	waitFor(func() bool { return runs.Load() == 1 })
	type outcome struct {
		v   *int
		err error
	}
	waiter := make(chan outcome, 1)
	go func() {
		v, err := c.Do(nil, "k", func() (*int, error) { t.Error("waiter ran its own fill"); return nil, nil })
		waiter <- outcome{v, err}
	}()
	waitFor(func() bool { return c.Stats().Hits == 1 })
	close(release)
	if p := <-panicked; p != "boom" {
		t.Fatalf("filling goroutine recovered %v, want the fill's panic", p)
	}
	got := <-waiter
	if got.err == nil || !errors.Is(got.err, ErrFillPanicked) {
		t.Fatalf("waiter got (%v, %v), want ErrFillPanicked", got.v, got.err)
	}
	if st, _ := stagerr.StageOf(got.err); st != stagerr.Cache {
		t.Fatalf("stage = %q, want cache", st)
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("panicking fill memoized (%d entries)", n)
	}
	want := 7
	v, err := c.Do(nil, "k", func() (*int, error) { runs.Add(1); return &want, nil })
	if err != nil || v == nil || *v != 7 {
		t.Fatalf("next lookup = (%v, %v), want a fresh fill of 7", v, err)
	}
	if r := runs.Load(); r != 2 {
		t.Fatalf("%d fills ran, want the panicking one and a fresh one", r)
	}
}

// TestErrorsWaitsOnInFlight: Errors settles an in-flight entry before
// reporting it, and an ordinary failure stays memoized.
func TestErrorsWaitsOnInFlight(t *testing.T) {
	c := New[string, int](0)
	var runs atomic.Int32
	release := make(chan struct{})
	boom := errors.New("boom")
	go c.Do(nil, "k", blockingFill(&runs, release, 0, boom))
	waitFor(func() bool { return runs.Load() == 1 })
	errsCh := make(chan []error, 1)
	go func() { errsCh <- c.Errors() }()
	close(release)
	if errs := <-errsCh; len(errs) != 1 || !errors.Is(errs[0], boom) {
		t.Fatalf("Errors() = %v, want [boom]", errs)
	}
	if _, err := c.Do(nil, "k", func() (int, error) { return 1, nil }); !errors.Is(err, boom) {
		t.Fatalf("ordinary failure not memoized: err = %v", err)
	}
}

func TestIsCtxErr(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("x"), false},
		{context.Canceled, true},
		{stagerr.Wrap(stagerr.Retime, context.DeadlineExceeded), true},
	} {
		if got := IsCtxErr(tc.err); got != tc.want {
			t.Errorf("IsCtxErr(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
