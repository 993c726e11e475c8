// Package cachestore is a content-addressed blob store on disk: the
// persistence layer of the sweep result cache. Keys are content hashes
// (optionally namespaced, "backend:hash"), values are opaque byte
// payloads; entries survive process restarts, so a second process pointed
// at the same directory answers warm for everything the first computed.
//
// Layout: `<dir>/<namespace>/<hh>/<hash>` where `hh` is the first two
// characters of the hash — a conventional fan-out that keeps directories
// small for large caches. Each ':'-separated key segment becomes one
// file name through Segment, so any non-empty segment is a valid key.
// Writes go through a temp file and an atomic rename, so readers never
// observe a torn entry and concurrent writers of the same key converge
// on one complete payload. Unreadable or missing entries report as
// absences, never as errors that could fail a sweep.
//
// The store can be size-capped: SetMaxBytes arms a byte budget and Put
// evicts least-recently-used entries (atime order) once it is exceeded —
// see gc.go. Without a budget the store grows without bound.
package cachestore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// ErrKey reports a key that cannot be mapped onto the disk layout: one
// with an empty segment.
var ErrKey = errors.New("cachestore: invalid key")

// Dir is a content-addressed blob store rooted at one directory. The zero
// value is unusable; construct with Open. Dir is safe for concurrent use
// by multiple goroutines and — thanks to atomic renames — by multiple
// processes sharing the directory.
type Dir struct {
	root string

	// Counters are telemetry handles so the store's stats have one
	// source of truth: detached (Open) or registered on a caller's
	// registry (OpenWithMetrics), Counters() and a /metrics scrape read
	// the very same atomics and can never disagree mid-run.
	hits         *telemetry.Counter
	misses       *telemetry.Counter
	writes       *telemetry.Counter
	evictions    *telemetry.Counter
	evictedBytes *telemetry.Counter

	// Size-capped GC state (see gc.go): the byte budget, an approximate
	// running payload total (exact after each collection), whether the
	// total has been seeded by a full scan, and the collector lock.
	maxBytes    atomic.Int64
	approxBytes atomic.Int64
	sized       atomic.Bool
	gcMu        sync.Mutex
}

// Open roots a store at dir, creating the directory if needed. Counters
// stay detached; use OpenWithMetrics to expose them on a registry.
func Open(dir string) (*Dir, error) { return OpenWithMetrics(dir, nil) }

// OpenWithMetrics roots a store at dir and registers its counters —
// fairness_cache_{hits,misses,writes,evictions,evicted_bytes}_total,
// labelled cache="disk" — on m. A nil registry leaves them detached
// (plain Open semantics).
func OpenWithMetrics(dir string, m *telemetry.Registry) (*Dir, error) {
	if dir == "" {
		return nil, fmt.Errorf("cachestore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	return &Dir{
		root:         dir,
		hits:         m.Counter("fairness_cache_hits_total", "cache", "disk"),
		misses:       m.Counter("fairness_cache_misses_total", "cache", "disk"),
		writes:       m.Counter("fairness_cache_writes_total", "cache", "disk"),
		evictions:    m.Counter("fairness_cache_evictions_total", "cache", "disk"),
		evictedBytes: m.Counter("fairness_cache_evicted_bytes_total", "cache", "disk"),
	}, nil
}

// Root returns the store's root directory.
func (d *Dir) Root() string { return d.root }

// path maps a key onto the sharded layout. Keys are one or more
// non-empty segments joined by ':'; each becomes a file name through
// Segment, and the last (the content hash) fans out over the first two
// characters of its name.
func (d *Dir) path(key string) (string, error) {
	segs := strings.Split(key, ":")
	parts := make([]string, 0, len(segs)+1)
	for i, s := range segs {
		if s == "" {
			return "", fmt.Errorf("%w: %q", ErrKey, key)
		}
		s = Segment(s)
		if i == len(segs)-1 && len(s) > 2 {
			parts = append(parts, s[:2])
		}
		parts = append(parts, s)
	}
	return filepath.Join(append([]string{d.root}, parts...)...), nil
}

// Segment maps one key segment onto a file name. A plain segment —
// letters, digits, '.', '-' and '_', not starting with '_', and not "."
// or ".." — is its own name, so backend names, "t-<tenant>" namespaces
// and hashes keep their directories. Any other segment becomes '_'
// followed by the segment with each byte outside [A-Za-z0-9.-] written
// as '_' and two hex digits. The leading '_' keeps encoded names apart
// from plain ones and the escapes decode uniquely, so distinct segments
// never share a name; the result is itself plain to any outer prefix.
func Segment(s string) string {
	if plain(s) {
		return s
	}
	var b strings.Builder
	b.WriteByte('_')
	for i := 0; i < len(s); i++ {
		if c := s[i]; c != '_' && nameByte(c) {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "_%02X", c)
		}
	}
	return b.String()
}

func plain(s string) bool {
	if s == "" || s[0] == '_' || s == "." || s == ".." {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !nameByte(s[i]) {
			return false
		}
	}
	return true
}

// nameByte reports whether c may appear verbatim in a file name.
func nameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '.' || c == '-' || c == '_'
}

// Get returns the payload stored under key. A missing or unreadable
// entry reports ok = false; err is reserved for invalid keys.
func (d *Dir) Get(key string) (data []byte, ok bool, err error) {
	p, err := d.path(key)
	if err != nil {
		return nil, false, err
	}
	data, rerr := os.ReadFile(p)
	if rerr != nil {
		d.misses.Inc()
		return nil, false, nil
	}
	d.hits.Inc()
	d.touch(p)
	return data, true, nil
}

// Put stores payload under key, atomically: concurrent readers see either
// nothing or the complete payload, never a prefix.
func (d *Dir) Put(key string, payload []byte) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	// Most puts land in a directory an earlier put made, so the directory
	// is created only when the temp file cannot be.
	dir := filepath.Dir(p)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("cachestore: %w", err)
		}
		tmp, err = os.CreateTemp(dir, ".tmp-*")
	}
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("cachestore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("cachestore: %w", err)
	}
	if err := os.Rename(tmpName, p); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("cachestore: %w", err)
	}
	d.writes.Inc()
	d.maybeGC(int64(len(payload)))
	return nil
}

// Delete removes the entry under key; deleting an absent key is a no-op.
func (d *Dir) Delete(key string) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("cachestore: %w", err)
	}
	return nil
}

// Len walks the store and counts entries. It is a maintenance/stats
// operation, not a hot-path one.
func (d *Dir) Len() int {
	n := 0
	filepath.WalkDir(d.root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if !e.IsDir() && !strings.HasPrefix(e.Name(), ".tmp-") {
			n++
		}
		return nil
	})
	return n
}

// Counters returns cumulative hit, miss and write counts for this store
// instance (not persisted across processes).
func (d *Dir) Counters() (hits, misses, writes uint64) {
	return uint64(d.hits.Value()), uint64(d.misses.Value()), uint64(d.writes.Value())
}
