package sweep

import (
	"encoding/json"

	"repro/internal/cachestore"
	"repro/internal/telemetry"
)

// DiskCache is a CacheStore backed by a content-addressed directory
// (internal/cachestore): outcomes are stored as JSON under their cache
// key, so a warm cache survives process restarts and can be shared by
// several processes pointed at the same directory — the cross-process
// result cache of the Engine API.
//
// Layout on disk: `<dir>/<backend>/<hh>/<hash>` where hh is the first
// two hash characters; every entry is one pretty-greppable JSON outcome.
// A corrupt or truncated entry (e.g. from a torn copy) is treated as a
// miss, deleted, and recomputed — never an error.
type DiskCache struct {
	store *cachestore.Dir
}

// NewDiskCache opens (creating if needed) a disk result cache rooted at
// dir. Counters stay detached; use NewDiskCacheWithMetrics to expose
// them on a registry.
func NewDiskCache(dir string) (*DiskCache, error) {
	return NewDiskCacheWithMetrics(dir, nil)
}

// NewDiskCacheWithMetrics is NewDiskCache with the underlying store's
// counters — fairness_cache_{hits,misses,writes,evictions,
// evicted_bytes}_total, labelled cache="disk" — registered on m (nil
// leaves them detached).
func NewDiskCacheWithMetrics(dir string, m *telemetry.Registry) (*DiskCache, error) {
	store, err := cachestore.OpenWithMetrics(dir, m)
	if err != nil {
		return nil, err
	}
	return &DiskCache{store: store}, nil
}

// Dir returns the cache's root directory.
func (d *DiskCache) Dir() string { return d.store.Root() }

// SetMaxBytes arms (or, with n <= 0, disarms) a size cap on the
// underlying store: once stored outcomes exceed n bytes, adds evict the
// least-recently-used entries until the total fits. Reads of an evicted
// entry are ordinary misses — the scenario recomputes and re-enters the
// cache as fresh.
func (d *DiskCache) SetMaxBytes(n int64) { d.store.SetMaxBytes(n) }

// Get implements CacheStore: a missing, unreadable or undecodable entry
// is a miss. Undecodable entries are evicted so they recompute cleanly.
func (d *DiskCache) Get(key string) (Outcome, bool) {
	data, ok, err := d.store.Get(key)
	if err != nil || !ok {
		return Outcome{}, false
	}
	var out Outcome
	if err := json.Unmarshal(data, &out); err != nil {
		d.store.Delete(key)
		return Outcome{}, false
	}
	return out, true
}

// Add implements CacheStore. Serialisation or I/O failures drop the
// entry silently — a result cache must never fail the computation whose
// result it stores.
func (d *DiskCache) Add(key string, out Outcome) {
	data, err := json.Marshal(out)
	if err != nil {
		return
	}
	d.store.Put(key, data)
}

// Len implements CacheStore by walking the directory.
func (d *DiskCache) Len() int { return d.store.Len() }

// Counters returns this instance's cumulative hit and miss counts.
func (d *DiskCache) Counters() (hits, misses uint64) {
	h, m, _ := d.store.Counters()
	return h, m
}
