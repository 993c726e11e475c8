package cachestore

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Size-capped GC: SetMaxBytes arms the store with a byte budget and Put
// prunes least-recently-used entries (atime order, modification time as
// the fallback on filesystems without usable atimes) whenever the budget
// is exceeded. Get bumps an entry's atime so hot results survive
// pruning even under relatime mounts. Without a budget the store keeps
// its historical grow-without-bound behaviour.

// staleTempAge is how old an orphaned .tmp- file must be before GC
// removes it: long enough that no live Put can still own it.
const staleTempAge = time.Hour

// SetMaxBytes arms (or, with n <= 0, disarms) the size cap, enforcing
// it immediately: a pre-existing store over the new budget is pruned
// right away, not only at the next write. From then on Put keeps the
// store within budget by evicting least-recently-used entries.
func (d *Dir) SetMaxBytes(n int64) {
	d.maxBytes.Store(n)
	if n > 0 {
		d.GC()
	}
}

// gcEntry is one stored payload as seen by the collector.
type gcEntry struct {
	path string
	size int64
	used time.Time
}

// scan walks the store, returning entries plus the total payload bytes.
// Stale temp files are deleted along the way; fresh ones are skipped
// (a concurrent Put still owns them).
func (d *Dir) scan() (entries []gcEntry, total int64) {
	cutoff := time.Now().Add(-staleTempAge)
	filepath.WalkDir(d.root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		fi, ierr := e.Info()
		if ierr != nil {
			return nil
		}
		if strings.HasPrefix(e.Name(), ".tmp-") {
			if fi.ModTime().Before(cutoff) {
				os.Remove(path)
			}
			return nil
		}
		entries = append(entries, gcEntry{path: path, size: fi.Size(), used: atime(fi)})
		total += fi.Size()
		return nil
	})
	return entries, total
}

// GC measures the store and, when a byte budget is set and exceeded,
// evicts least-recently-used entries down to the low-water mark (90% of
// the budget — the hysteresis that stops a store sitting at its cap
// from paying a full directory walk on every single write). It returns
// how many entries and bytes were removed. Concurrent Gets of an entry
// being evicted simply miss and recompute — eviction can never fail a
// sweep.
func (d *Dir) GC() (removed int, freed int64) {
	d.gcMu.Lock()
	defer d.gcMu.Unlock()
	return d.gcLocked()
}

// gcLocked is GC's body; callers hold gcMu.
func (d *Dir) gcLocked() (removed int, freed int64) {
	entries, total := d.scan()
	max := d.maxBytes.Load()
	if max > 0 && total > max {
		target := max - max/10 // low-water mark: free a slack band, not one entry
		sort.Slice(entries, func(i, j int) bool {
			if !entries[i].used.Equal(entries[j].used) {
				return entries[i].used.Before(entries[j].used)
			}
			return entries[i].path < entries[j].path
		})
		for _, e := range entries {
			if total <= target {
				break
			}
			if err := os.Remove(e.path); err != nil {
				continue
			}
			total -= e.size
			removed++
			freed += e.size
		}
	}
	d.sized.Store(true)
	d.approxBytes.Store(total)
	d.evictions.Add(int64(removed))
	d.evictedBytes.Add(freed)
	return removed, freed
}

// maybeGC is Put's hook: it keeps an approximate running byte total
// (seeded by one full scan the first time a budget matters) and triggers
// a collection once the total crosses the budget. TryLock keeps a
// stampede of writers down to one collector; the others' bytes are
// simply counted and swept up by the next collection.
func (d *Dir) maybeGC(wrote int64) {
	max := d.maxBytes.Load()
	if max <= 0 {
		return
	}
	if !d.sized.Load() {
		if !d.gcMu.TryLock() {
			return
		}
		defer d.gcMu.Unlock()
		_, total := d.scan()
		d.approxBytes.Store(total)
		d.sized.Store(true)
		return
	}
	if d.approxBytes.Add(wrote) > max && d.gcMu.TryLock() {
		defer d.gcMu.Unlock()
		d.gcLocked()
	}
}

// touch bumps an entry's used-time after a hit so LRU eviction sees
// through relatime mounts (and platforms whose collector orders by
// mtime). Best-effort: a raced eviction or permission error costs at
// worst one recomputation.
func (d *Dir) touch(path string) {
	if d.maxBytes.Load() <= 0 {
		return
	}
	if fi, err := os.Stat(path); err == nil {
		bumpUsed(path, fi)
	}
}
