package cachestore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPutGetRoundTrip(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "montecarlo:abcdef0123456789"
	if _, ok, err := d.Get(key); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	if err := d.Put(key, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	data, ok, err := d.Get(key)
	if err != nil || !ok || string(data) != `{"x":1}` {
		t.Fatalf("get = %q ok=%v err=%v", data, ok, err)
	}
	// Overwrite replaces the payload.
	if err := d.Put(key, []byte(`{"x":2}`)); err != nil {
		t.Fatal(err)
	}
	if data, _, _ := d.Get(key); string(data) != `{"x":2}` {
		t.Errorf("overwrite lost: %q", data)
	}
	if d.Len() != 1 {
		t.Errorf("len = %d", d.Len())
	}
}

func TestShardedLayout(t *testing.T) {
	root := t.TempDir()
	d, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("theory:cafe1234", []byte("v")); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(root, "theory", "ca", "cafe1234")
	if _, err := os.Stat(want); err != nil {
		t.Errorf("expected sharded path %s: %v", want, err)
	}
}

func TestCrossInstanceReuse(t *testing.T) {
	// The cross-process story: a second store over the same directory sees
	// everything the first wrote.
	root := t.TempDir()
	a, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := a.Put(fmt.Sprintf("mc:hash%02d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 5 {
		t.Fatalf("second instance sees %d entries, want 5", b.Len())
	}
	for i := 0; i < 5; i++ {
		data, ok, err := b.Get(fmt.Sprintf("mc:hash%02d", i))
		if err != nil || !ok || data[0] != byte(i) {
			t.Errorf("entry %d: %v %v %v", i, data, ok, err)
		}
	}
	keys := storedKeys(b)
	sort.Strings(keys)
	if len(keys) != 5 || keys[0] != "mc:hash00" || keys[4] != "mc:hash04" {
		t.Errorf("keys = %v", keys)
	}
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	// The store is byte-oriented, so "corruption" at this layer means an
	// unreadable file; it must report as a miss, not an error.
	root := t.TempDir()
	d, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("mc:deadbeef", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(root, "mc", "de", "deadbeef")
	if err := os.Chmod(p, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(p, 0o644) })
	if os.Geteuid() != 0 { // root bypasses permission bits
		if _, ok, err := d.Get("mc:deadbeef"); ok || err != nil {
			t.Errorf("unreadable entry: ok=%v err=%v", ok, err)
		}
	}
}

func TestInvalidKeys(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "a:", ":b", "a::b"} {
		if err := d.Put(key, []byte("v")); !errors.Is(err, ErrKey) {
			t.Errorf("Put(%q) err = %v, want ErrKey", key, err)
		}
		if _, _, err := d.Get(key); !errors.Is(err, ErrKey) {
			t.Errorf("Get(%q) err = %v, want ErrKey", key, err)
		}
	}
}

func TestDelete(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("mc:aa11", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("mc:aa11"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.Get("mc:aa11"); ok {
		t.Error("entry survived delete")
	}
	if err := d.Delete("mc:aa11"); err != nil {
		t.Errorf("double delete: %v", err)
	}
}

func TestPutRecreatesRemovedDirectory(t *testing.T) {
	root := t.TempDir()
	d, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("t-a:mc:aa11", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Remove the namespace directory the first put made, under the store.
	if err := os.RemoveAll(filepath.Join(root, "t-a")); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"t-a:mc:aa11", "t-a:mc:bb22"} {
		if err := d.Put(key, []byte("v2")); err != nil {
			t.Fatalf("put %s into a removed namespace: %v", key, err)
		}
		if data, ok, err := d.Get(key); err != nil || !ok || string(data) != "v2" {
			t.Fatalf("get %s = %q ok=%v err=%v", key, data, ok, err)
		}
	}
	if d.Len() != 2 {
		t.Errorf("len = %d, want 2 (no leftover temp files)", d.Len())
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Put("mc:shared", []byte("the-one-true-payload"))
		}()
	}
	wg.Wait()
	data, ok, err := d.Get("mc:shared")
	if err != nil || !ok || string(data) != "the-one-true-payload" {
		t.Fatalf("converged entry: %q ok=%v err=%v", data, ok, err)
	}
	if d.Len() != 1 {
		t.Errorf("len = %d, want 1 (no leftover temp files)", d.Len())
	}
}

func TestCounters(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.Get("mc:absent")
	d.Put("mc:present", []byte("v"))
	d.Get("mc:present")
	hits, misses, writes := d.Counters()
	if hits != 1 || misses != 1 || writes != 1 {
		t.Errorf("counters = %d/%d/%d", hits, misses, writes)
	}
}

func TestGCEvictsLeastRecentlyUsed(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100)
	keys := []string{"mc:aaaa1", "mc:bbbb2", "mc:cccc3", "mc:dddd4"}
	for _, k := range keys {
		if err := d.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Stagger access times explicitly so the LRU order is unambiguous:
	// cccc3 oldest, then aaaa1, bbbb2, dddd4 newest.
	base := time.Now().Add(-time.Hour)
	for i, k := range []string{"mc:cccc3", "mc:aaaa1", "mc:bbbb2", "mc:dddd4"} {
		p, perr := d.path(k)
		if perr != nil {
			t.Fatal(perr)
		}
		at := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(p, at, at); err != nil {
			t.Fatal(err)
		}
	}
	// A 250-byte budget has a 225-byte low-water mark: the collection
	// must stop at two entries (200 bytes), evicting exactly the two
	// least recently used.
	d.maxBytes.Store(250) // arm without collecting, to exercise GC itself
	if removed, freed := d.GC(); removed != 2 || freed != 200 {
		t.Fatalf("GC removed %d entries / %d bytes, want 2 / 200", removed, freed)
	}
	for k, want := range map[string]bool{
		"mc:cccc3": false, "mc:aaaa1": false, "mc:bbbb2": true, "mc:dddd4": true,
	} {
		_, ok, err := d.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want {
			t.Errorf("after GC, %s present = %v, want %v", k, ok, want)
		}
	}
}

func TestPutEnforcesMaxBytes(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.SetMaxBytes(1000)
	payload := make([]byte, 100)
	for i := 0; i < 50; i++ {
		if err := d.Put(fmt.Sprintf("mc:key%04d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	d.GC() // settle the approximate counter into an exact measurement
	if n := d.Len(); n > 10 {
		t.Errorf("store holds %d entries over a 10-entry budget", n)
	}
	if got := d.approxBytes.Load(); got > 1000 {
		t.Errorf("payload bytes %d exceed the 1000-byte budget", got)
	}
}

func TestGetTouchKeepsHotEntriesAlive(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.SetMaxBytes(250)
	payload := make([]byte, 100)
	if err := d.Put("mc:hot000", payload); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("mc:cold00", payload); err != nil {
		t.Fatal(err)
	}
	// Age both entries, then touch the hot one through a read.
	old := time.Now().Add(-time.Hour)
	for _, k := range []string{"mc:hot000", "mc:cold00"} {
		p, _ := d.path(k)
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := d.Get("mc:hot000"); !ok {
		t.Fatal("hot entry missing before GC")
	}
	// A third entry pushes the store over budget; the untouched cold
	// entry must be the one evicted.
	if err := d.Put("mc:new000", payload); err != nil {
		t.Fatal(err)
	}
	d.GC()
	if _, ok, _ := d.Get("mc:hot000"); !ok {
		t.Error("recently-read entry was evicted")
	}
	if _, ok, _ := d.Get("mc:cold00"); ok {
		t.Error("least-recently-used entry survived over the hot one")
	}
}

func TestGCUnboundedByDefault(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := d.Put(fmt.Sprintf("mc:key%04d", i), make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if removed, _ := d.GC(); removed != 0 {
		t.Errorf("GC evicted %d entries with no budget set", removed)
	}
	if n := d.Len(); n != 20 {
		t.Errorf("Len = %d, want 20", n)
	}
}

func TestGCRemovesStaleTempFiles(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("mc:aaaa1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(d.Root(), "mc", "aa", ".tmp-orphan")
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	d.GC()
	if _, err := os.Stat(stale); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("stale temp file survived GC: %v", err)
	}
	if _, ok, _ := d.Get("mc:aaaa1"); !ok {
		t.Error("real entry lost during temp cleanup")
	}
}

func TestUnsafeSegmentsEncodeInsideRoot(t *testing.T) {
	// Segments outside the plain alphabet (evaluator names such as
	// "montecarlo+es(...)", tenants with spaces, traversal attempts) map
	// to one file name each under the root: distinct keys never share a
	// file, nothing escapes the root, and Keys reports the original keys.
	root := filepath.Join(t.TempDir(), "store")
	d, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{
		"montecarlo+es(c=0.05,min=64,b=64):abcd01",
		"arena(s=honest+selfish:g=0.5):abcd01",
		"t-a b:mc:abcd01", "t-a_b:mc:abcd01", "t-a_20b:mc:abcd01", "_x:abcd01", "x:abcd01",
		"../evil:abcd01", "a/b:abcd01", "a:..", "b:.", "sp ace",
	}
	for i, k := range keys {
		if err := d.Put(k, []byte{byte(i)}); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
	}
	for i, k := range keys {
		data, ok, err := d.Get(k)
		if err != nil || !ok || len(data) != 1 || data[0] != byte(i) {
			t.Errorf("Get(%q) = %v %v %v, want its own payload", k, data, ok, err)
		}
	}
	if n := d.Len(); n != len(keys) {
		t.Errorf("store holds %d files, want %d", n, len(keys))
	}
	got := storedKeys(d)
	sort.Strings(got)
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("stored keys = %q, want %q", got, want)
	}
	if entries, _ := os.ReadDir(filepath.Dir(root)); len(entries) != 1 {
		t.Errorf("store wrote outside its root: %v", entries)
	}
}

// storedKeys walks the store and returns every stored key, reconstructed
// from the sharded layout in directory-walk order: the test oracle that
// Segment's file names decode back to the keys they store.
func storedKeys(d *Dir) []string {
	var keys []string
	filepath.WalkDir(d.root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || strings.HasPrefix(e.Name(), ".tmp-") {
			return nil
		}
		rel, rerr := filepath.Rel(d.root, path)
		if rerr != nil {
			return nil
		}
		segs := strings.Split(filepath.ToSlash(rel), "/")
		// Drop the two-character fan-out directory preceding the hash.
		if len(segs) >= 2 && segs[len(segs)-2] == e.Name()[:min(2, len(e.Name()))] {
			segs = append(segs[:len(segs)-2], segs[len(segs)-1])
		}
		for i, seg := range segs {
			segs[i] = unsegment(seg)
		}
		keys = append(keys, strings.Join(segs, ":"))
		return nil
	})
	return keys
}

// unsegment inverts Segment.
func unsegment(name string) string {
	enc, ok := strings.CutPrefix(name, "_")
	if !ok {
		return name
	}
	b := make([]byte, 0, len(enc))
	for i := 0; i < len(enc); i++ {
		if enc[i] == '_' && i+3 <= len(enc) {
			if v, err := strconv.ParseUint(enc[i+1:i+3], 16, 8); err == nil {
				b = append(b, byte(v))
				i += 2
				continue
			}
		}
		b = append(b, enc[i])
	}
	return string(b)
}
