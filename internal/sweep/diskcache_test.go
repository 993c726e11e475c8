package sweep

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

func TestDiskCacheSurvivesProcessRestart(t *testing.T) {
	// The acceptance scenario: process one computes a sweep against a
	// disk cache; a fresh DiskCache instance over the same directory
	// (standing in for a second process) answers the same sweep entirely
	// from disk.
	dir := t.TempDir()
	specs := quickGrid(t)

	first, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(specs, Options{Cache: first})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Computed != len(specs) {
		t.Fatalf("cold stats: %+v", cold.Stats)
	}
	if first.Len() != len(specs) {
		t.Fatalf("disk cache holds %d entries, want %d", first.Len(), len(specs))
	}

	second, err := NewDiskCache(dir) // fresh instance, no shared memory
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(specs, Options{Cache: second})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Computed != 0 || warm.Stats.CacheHits != len(specs) || warm.Stats.TrialsRun != 0 {
		t.Fatalf("second process should be all hits: %+v", warm.Stats)
	}
	for i := range specs {
		if warm.Outcomes[i].Verdict != cold.Outcomes[i].Verdict {
			t.Errorf("outcome %d changed across processes", i)
		}
		if !warm.Outcomes[i].CacheHit {
			t.Errorf("outcome %d not marked as hit", i)
		}
	}
	hits, misses := second.Counters()
	if hits != uint64(len(specs)) || misses != 0 {
		t.Errorf("second-instance counters: %d hits, %d misses", hits, misses)
	}
}

func TestDiskCacheCorruptEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.Spec{Protocol: "pow", Stake: 0.2, Blocks: 200, Trials: 20, Seed: 3}
	if _, err := Run([]scenario.Spec{spec}, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	// Corrupt every stored entry in place.
	err = filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		return os.WriteFile(path, []byte("{torn json"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run([]scenario.Spec{spec}, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Computed != 1 {
		t.Errorf("corrupt entry should recompute: %+v", rep.Stats)
	}
	// The recomputed outcome was re-cached cleanly.
	again, err := Run([]scenario.Spec{spec}, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.CacheHits != 1 {
		t.Errorf("self-healed entry should hit: %+v", again.Stats)
	}
}

func TestDiskCacheSharedAcrossBackends(t *testing.T) {
	// One directory may serve several backends; entries stay separate.
	dir := t.TempDir()
	cache, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.Spec{Protocol: "pow", Stake: 0.2, Blocks: 300, Trials: 10, Seed: 2}
	if _, err := Run([]scenario.Spec{spec}, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run([]scenario.Spec{spec}, Options{Cache: cache, Evaluator: &TheoryEvaluator{}}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Errorf("disk cache holds %d entries, want 2", cache.Len())
	}
	// Layout check: entries live under per-backend namespaces.
	for _, backend := range []string{"montecarlo", "theory"} {
		if _, err := os.Stat(filepath.Join(dir, backend)); err != nil {
			t.Errorf("missing %s namespace: %v", backend, err)
		}
	}
}

func TestDiskCacheMaxBytesEvicts(t *testing.T) {
	// The fairsweep -cache-max-bytes contract: a size-capped cache stays
	// within budget, evictions read as ordinary misses, and evicted
	// scenarios recompute and re-enter the store.
	dir := t.TempDir()
	cache, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := quickGrid(t)
	if _, err := Run(specs, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	full := cache.Len()
	if full != len(specs) {
		t.Fatalf("cache holds %d entries, want %d", full, len(specs))
	}
	// One stored outcome is a small JSON document; budget for roughly
	// half the grid and force a collection.
	var entryBytes int64
	filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() && entryBytes == 0 {
			if fi, ferr := e.Info(); ferr == nil {
				entryBytes = fi.Size()
			}
		}
		return nil
	})
	if entryBytes == 0 {
		t.Fatal("no cache entries found on disk")
	}
	// Arming the cap enforces it immediately: no explicit GC call needed.
	cache.SetMaxBytes(entryBytes * int64(full) / 2)
	surviving := cache.Len()
	if surviving == 0 || surviving >= full {
		t.Fatalf("eviction left %d of %d entries, want a strict subset", surviving, full)
	}
	// The sweep self-heals: evicted scenarios recompute, survivors hit.
	// Disarm the budget first so the recomputes' own writes cannot evict
	// the survivors mid-sweep (cache semantics allow that — it would just
	// make the assertion scheduling-dependent).
	cache.SetMaxBytes(0)
	rep, err := Run(specs, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.CacheHits != surviving || rep.Stats.Computed != full-surviving {
		t.Errorf("want %d hits + %d recomputes, got %+v", surviving, full-surviving, rep.Stats)
	}
}

func TestDiskCacheRoundTripsConfiguredEvaluatorNames(t *testing.T) {
	// Adaptive Monte-Carlo and configured arena evaluators name their
	// cache namespace with characters a file name cannot carry verbatim;
	// their outcomes must still be stored and found again. Plain names
	// keep their directory.
	dir := t.TempDir()
	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	mc := &MonteCarloEvaluator{Adaptive: &AdaptiveTrials{}}
	arena, err := ParseArenaName("arena(r=3;s=honest+selfish:g=0.5)")
	if err != nil {
		t.Fatal(err)
	}
	hash := quickGrid(t)[0].MustHash()
	for i, name := range []string{mc.Name(), arena.Name(), "montecarlo"} {
		c.Add(CacheKey(name, hash), Outcome{Hash: hash, TrialsRun: int64(i + 1)})
	}
	for i, name := range []string{mc.Name(), arena.Name(), "montecarlo"} {
		out, ok := c.Get(CacheKey(name, hash))
		if !ok || out.TrialsRun != int64(i+1) {
			t.Errorf("%s: ok=%v trials_run=%d, want its own outcome", name, ok, out.TrialsRun)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "montecarlo", hash[:2], hash)); err != nil {
		t.Errorf("plain backend name moved: %v", err)
	}
}
