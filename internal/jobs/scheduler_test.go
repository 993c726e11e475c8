package jobs

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// saturate keeps every tenant's demand pending — one goroutine per
// tenant re-acquires the moment its grant is handed to the main
// goroutine, which counts and releases grants one at a time. This is
// the "under saturation" regime the fairness property quantifies over:
// before each release the main goroutine waits until every tenant has a
// request pending, so each release forces the scheduler to pick among
// all of them. The scheduler must run with capacity 1.
func saturate(t *testing.T, s *Scheduler, tenants []string, priorities map[string]int,
	total int64) map[string]int64 {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type grantRec struct {
		tenant  string
		n       int
		release func()
	}
	grants := make(chan grantRec)
	var wg sync.WaitGroup
	for _, tenant := range tenants {
		gate := s.Gate(tenant, "job-"+tenant, priorities[tenant], time.Time{})
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for {
				n, release, err := gate.Acquire(ctx, 1)
				if err != nil {
					return
				}
				select {
				case grants <- grantRec{tenant, n, release}:
				case <-ctx.Done():
					release()
					return
				}
			}
		}(tenant)
	}
	counts := make(map[string]int64, len(tenants))
	var granted int64
	for granted < total {
		rec := <-grants
		counts[rec.tenant] += int64(rec.n)
		granted += int64(rec.n)
		// Wait for the just-granted tenant to re-enter the pending set,
		// so the next pick is a genuinely contested one.
		for {
			s.mu.Lock()
			contested := len(s.pending) == len(tenants)
			s.mu.Unlock()
			if contested {
				break
			}
			runtime.Gosched()
		}
		rec.release()
	}
	cancel()
	wg.Wait()
	return counts
}

// TestSchedulerConvergesToWeights is the fair-share property test: under
// saturation (every tenant always has a pending request), long-run
// scenario allocations converge to the configured weight vector.
func TestSchedulerConvergesToWeights(t *testing.T) {
	cases := []map[string]float64{
		{"a": 1, "b": 1},
		{"a": 1, "b": 3},
		{"a": 2, "b": 5},
		{"a": 1, "b": 2, "c": 4},
		{"a": 1, "b": 1, "c": 1, "d": 1},
	}
	const total = 4000
	for i, weights := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			s := NewScheduler(nil, nil, nil) // capacity 1: strict interleaving
			tenants := make([]string, 0, len(weights))
			sum := 0.0
			for tenant, w := range weights {
				s.SetTenant(tenant, w, 0)
				tenants = append(tenants, tenant)
				sum += w
			}
			counts := saturate(t, s, tenants, nil, total)
			var got int64
			for _, c := range counts {
				got += c
			}
			for tenant, w := range weights {
				share := float64(counts[tenant]) / float64(got)
				want := w / sum
				if share < want-0.1 || share > want+0.1 {
					t.Errorf("tenant %s: share %.3f, want %.3f ± 0.1 (counts %v)",
						tenant, share, want, counts)
				}
			}
		})
	}
}

// TestSchedulerEqualTenantsWithin10Percent pins the acceptance
// criterion directly: two equal-weight tenants under saturation each
// take 50% ± 10% of dispatches.
func TestSchedulerEqualTenantsWithin10Percent(t *testing.T) {
	s := NewScheduler(nil, telemetry.NewRegistry(), nil)
	s.SetTenant("a", 1, 0)
	s.SetTenant("b", 1, 0)
	counts := saturate(t, s, []string{"a", "b"}, nil, 2000)
	total := counts["a"] + counts["b"]
	for _, tenant := range []string{"a", "b"} {
		share := float64(counts[tenant]) / float64(total)
		if share < 0.4 || share > 0.6 {
			t.Errorf("tenant %s: dispatch share %.3f outside 50%% ± 10%% (counts %v)",
				tenant, share, counts)
		}
	}
}

// TestSchedulerPriorityBoost checks that priority steps double the
// effective weight: priority +2 against 0 at equal tenant weight should
// settle near a 4:1 split.
func TestSchedulerPriorityBoost(t *testing.T) {
	s := NewScheduler(nil, nil, nil)
	s.SetTenant("hi", 1, 0)
	s.SetTenant("lo", 1, 0)
	counts := saturate(t, s, []string{"hi", "lo"}, map[string]int{"hi": 2}, 3000)
	total := counts["hi"] + counts["lo"]
	share := float64(counts["hi"]) / float64(total)
	if share < 0.7 || share > 0.9 {
		t.Errorf("priority +2 share %.3f, want 0.8 ± 0.1 (counts %v)", share, counts)
	}
}

// TestSchedulerStarvationBound is the starvation regression: a tiny
// job arriving while a huge job has already monopolized the scheduler
// for a long stretch must be served within a couple of grants — stride
// scheduling admits latecomers at the current virtual time, it does
// not make them pay down the incumbent's history.
func TestSchedulerStarvationBound(t *testing.T) {
	s := NewScheduler(nil, nil, nil)
	s.SetTenant("huge", 1, 0)
	s.SetTenant("tiny", 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The huge job: one always-pending request, grants handed to this
	// goroutine for release (the saturate executor pattern).
	bigGate := s.Gate("huge", "huge-job", 0, time.Time{})
	bigReleases := make(chan func())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			_, release, err := bigGate.Acquire(ctx, 1)
			if err != nil {
				return
			}
			select {
			case bigReleases <- release:
			case <-ctx.Done():
				release()
				return
			}
		}
	}()

	// 200 uncontested huge-job grants: a long dispatch history.
	for range 200 {
		(<-bigReleases)()
	}

	// Hold the next huge grant so the scheduler is busy when the tiny
	// job arrives, then wait until the tiny request is actually pending.
	held := <-bigReleases
	tinyGate := s.Gate("tiny", "tiny-job", 0, time.Time{})
	tinyGranted := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, release, err := tinyGate.Acquire(ctx, 1)
		if err != nil {
			return
		}
		close(tinyGranted)
		release()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		pending := false
		for _, r := range s.pending {
			pending = pending || r.tenant.name == "tiny"
		}
		s.mu.Unlock()
		if pending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tiny request never reached the pending set")
		}
		runtime.Gosched()
	}

	// From here every grant is contested. The tiny job must win within
	// a strict bound, despite the 200-grant head start.
	held()
	waited := 0
	for {
		select {
		case <-tinyGranted:
		case release := <-bigReleases:
			waited++
			if waited > 3 {
				t.Fatalf("tiny job still waiting after %d huge-job grants", waited)
			}
			release()
			continue
		}
		break
	}
	cancel()
	wg.Wait()
}

// TestSchedulerInflightQuotaClamps checks the per-tenant in-flight
// scenario quota: grants clamp to the remaining headroom and further
// requests block until a release.
func TestSchedulerInflightQuotaClamps(t *testing.T) {
	s := NewScheduler(func() int { return 100 }, nil, nil)
	s.SetTenant("q", 1, 3)
	gate := s.Gate("q", "job", 0, time.Time{})
	ctx := context.Background()

	n1, release1, err := gate.Acquire(ctx, 2)
	if err != nil || n1 != 2 {
		t.Fatalf("first acquire: n=%d err=%v, want 2", n1, err)
	}
	n2, release2, err := gate.Acquire(ctx, 5)
	if err != nil || n2 != 1 {
		t.Fatalf("second acquire: n=%d err=%v, want clamp to 1", n2, err)
	}

	// Quota exhausted: the next acquire must block until a release.
	blockedCtx, cancelBlocked := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancelBlocked()
	if n, _, err := gate.Acquire(blockedCtx, 1); err == nil {
		t.Fatalf("acquire beyond quota granted %d, want block", n)
	}
	release1()
	n3, release3, err := gate.Acquire(ctx, 5)
	if err != nil || n3 != 2 {
		t.Fatalf("post-release acquire: n=%d err=%v, want 2", n3, err)
	}
	release2()
	release3()
}

// TestSchedulerAcquireCancelRace: a context cancelled around grant time
// must neither leak the grant nor deadlock later acquires.
func TestSchedulerAcquireCancelRace(t *testing.T) {
	s := NewScheduler(nil, nil, nil)
	s.SetTenant("r", 1, 0)
	gate := s.Gate("r", "job", 0, time.Time{})
	for range 200 {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, release, err := gate.Acquire(ctx, 1); err == nil {
				release()
			}
		}()
		cancel()
		<-done
	}
	// The scheduler must still serve cleanly after all those races.
	n, release, err := gate.Acquire(context.Background(), 1)
	if err != nil || n != 1 {
		t.Fatalf("post-race acquire: n=%d err=%v", n, err)
	}
	release()
}
