package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// fakeClock is a virtual store clock: tests advance it explicitly, so
// age-based GC tests never sleep.
type fakeClock struct{ now int64 }

func (c *fakeClock) Now() int64      { return c.now }
func (c *fakeClock) Advance(s int64) { c.now += s }

// idOf builds a deterministic content address from a tag.
func idOf(tag string) string {
	sum := sha256.Sum256([]byte(tag))
	return hex.EncodeToString(sum[:])
}

func openTest(t *testing.T, dir string, cfg Config) (*Store, *fakeClock) {
	t.Helper()
	clk := &fakeClock{now: 1000}
	cfg.Dir = dir
	cfg.Now = clk.Now
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, clk
}

func TestPutGetRoundtrip(t *testing.T) {
	s, _ := openTest(t, t.TempDir(), Config{})
	id := idOf("a")
	body := []byte(`{"result":"bytes"}`)
	if err := s.Put(id, body); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, meta, err := s.Get(id)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if string(got) != string(body) {
		t.Fatalf("body = %q, want %q", got, body)
	}
	sum := sha256.Sum256(body)
	if meta.Digest != hex.EncodeToString(sum[:]) || meta.Size != int64(len(body)) {
		t.Fatalf("meta = %+v", meta)
	}
	if s.Len() != 1 || s.Bytes() != int64(len(body)) {
		t.Fatalf("len=%d bytes=%d", s.Len(), s.Bytes())
	}
}

func TestGetMissAndBadID(t *testing.T) {
	s, _ := openTest(t, t.TempDir(), Config{})
	if _, _, err := s.Get(idOf("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("g", 64), strings.Repeat("A", 64), "../../etc/passwd"} {
		if _, _, err := s.Get(bad); !errors.Is(err, ErrBadID) {
			t.Fatalf("Get(%q): want ErrBadID, got %v", bad, err)
		}
		if err := s.Put(bad, []byte("x")); !errors.Is(err, ErrBadID) {
			t.Fatalf("Put(%q): want ErrBadID, got %v", bad, err)
		}
		if _, _, err := s.Get(bad); !errors.Is(err, ErrBadID) {
			t.Fatalf("Get(%q): want ErrBadID, got %v", bad, err)
		}
	}
}

func TestReopenServesPersistedArtifacts(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Config{})
	ids := []string{idOf("a"), idOf("b"), idOf("c")}
	for i, id := range ids {
		if err := s.Put(id, []byte(fmt.Sprintf("body-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite one id: the replayed index must keep the last record.
	if err := s.Put(ids[1], []byte("body-1-v2")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, _ := openTest(t, dir, Config{})
	for i, id := range ids {
		want := fmt.Sprintf("body-%d", i)
		if i == 1 {
			want = "body-1-v2"
		}
		got, _, err := s2.Get(id)
		if err != nil {
			t.Fatalf("reopened get %d: %v", i, err)
		}
		if string(got) != want {
			t.Fatalf("reopened body %d = %q, want %q", i, got, want)
		}
	}
	if s2.Len() != 3 {
		t.Fatalf("reopened len = %d, want 3", s2.Len())
	}
}

func TestCorruptionDetectedOnRead(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Config{})
	id := idOf("victim")
	if err := s.Put(id, []byte("pristine artifact bytes")); err != nil {
		t.Fatal(err)
	}
	// Flip one bit on disk behind the store's back.
	path := filepath.Join(dir, "objects", id[:2], id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(id); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	// The entry is gone: the next Get is a clean miss, so a recompute
	// can re-store under the same id.
	if _, _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after corruption drop: want ErrNotFound, got %v", err)
	}
	if err := s.Put(id, []byte("pristine artifact bytes")); err != nil {
		t.Fatalf("re-put after corruption: %v", err)
	}
	if got, _, err := s.Get(id); err != nil || string(got) != "pristine artifact bytes" {
		t.Fatalf("re-stored get = %q, %v", got, err)
	}
	s.Close()

	// The drop record persists: a restart does not resurrect the
	// now-re-stored entry's corrupt history.
	s2, _ := openTest(t, dir, Config{})
	if got, _, err := s2.Get(id); err != nil || string(got) != "pristine artifact bytes" {
		t.Fatalf("reopened get = %q, %v", got, err)
	}
}

func TestCorruptionDropPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Config{})
	id := idOf("victim")
	if err := s.Put(id, []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", id[:2], id)
	if err := os.WriteFile(path, []byte("wrong"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(id); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	s.Close()
	s2, _ := openTest(t, dir, Config{})
	if _, _, err := s2.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after restart: want ErrNotFound (drop record), got %v", err)
	}
}

func TestMissingBodyIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Config{})
	id := idOf("gone")
	if err := s.Put(id, []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "objects", id[:2], id)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(id); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for missing body, got %v", err)
	}
}

func TestGCSizePolicyEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s, clk := openTest(t, dir, Config{MaxBytes: 25})
	ids := []string{idOf("a"), idOf("b"), idOf("c")}
	for _, id := range ids {
		if err := s.Put(id, []byte("0123456789")); err != nil { // 10 bytes each
			t.Fatal(err)
		}
		clk.Advance(10)
	}
	n, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	// Oldest (ids[0]) went; the other two stay.
	if _, _, err := s.Get(ids[0]); !errors.Is(err, ErrEvicted) {
		t.Fatalf("oldest: want ErrEvicted, got %v", err)
	}
	for _, id := range ids[1:] {
		if _, _, err := s.Get(id); err != nil {
			t.Fatalf("survivor %s: %v", id[:8], err)
		}
	}
	if s.Bytes() != 20 {
		t.Fatalf("bytes after gc = %d, want 20", s.Bytes())
	}
}

func TestGCAgePolicy(t *testing.T) {
	dir := t.TempDir()
	s, clk := openTest(t, dir, Config{MaxAge: 100 * time.Second})
	old, young := idOf("old"), idOf("young")
	if err := s.Put(old, []byte("old-bytes")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(150)
	if err := s.Put(young, []byte("young-bytes")); err != nil {
		t.Fatal(err)
	}
	n, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, _, err := s.Get(old); !errors.Is(err, ErrEvicted) {
		t.Fatalf("old: want ErrEvicted, got %v", err)
	}
	if _, _, err := s.Get(young); err != nil {
		t.Fatalf("young evicted too: %v", err)
	}
}

func TestEvictionSurvivesRestartAndRePut(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Config{MaxBytes: 1})
	id := idOf("e")
	if err := s.Put(id, []byte("too big for the cap")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(id); !errors.Is(err, ErrEvicted) {
		t.Fatalf("want ErrEvicted, got %v", err)
	}
	s.Close()

	s2, _ := openTest(t, dir, Config{})
	if _, _, err := s2.Get(id); !errors.Is(err, ErrEvicted) {
		t.Fatalf("tombstone lost across restart: %v", err)
	}
	// A re-Put replaces the tombstone.
	if err := s2.Put(id, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, _, err := s2.Get(id); err != nil || string(got) != "fresh" {
		t.Fatalf("re-put get = %q, %v", got, err)
	}
}

func TestTruncatedIndexTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Config{})
	a, b := idOf("a"), idOf("b")
	if err := s.Put(a, []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, []byte("bbb")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the final line mid-record, as a crash mid-append would.
	path := filepath.Join(dir, "index")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, _ := openTest(t, dir, Config{})
	if _, _, err := s2.Get(a); err != nil {
		t.Fatalf("valid prefix lost: %v", err)
	}
	// b's record was torn: it must read as never-stored, and its
	// orphaned body must be swept.
	if _, _, err := s2.Get(b); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn record: want ErrNotFound, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "objects", b[:2], b)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan body not swept: %v", err)
	}
	// The torn tail was truncated away: appending must produce a
	// well-formed log (reopen once more to prove it).
	if err := s2.Put(b, []byte("bbb-again")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, _ := openTest(t, dir, Config{})
	if got, _, err := s3.Get(b); err != nil || string(got) != "bbb-again" {
		t.Fatalf("post-truncation append: %q, %v", got, err)
	}
}

func TestInteriorIndexCorruptionRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Config{})
	if err := s.Put(idOf("a"), []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(idOf("b"), []byte("bbb")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, "index")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the FIRST line; the second stays intact, so this is not
	// a torn tail and the store must refuse to open.
	raw[2] = 'X'
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir, Now: func() int64 { return 0 }}); err == nil {
		t.Fatal("open succeeded on interior index corruption")
	}
}

func TestTmpLeftoversSweptOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Config{})
	s.Close()
	stale := filepath.Join(dir, "tmp", idOf("stale"))
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	openTest(t, dir, Config{})
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp leftover survived open: %v", err)
	}
}

func TestClosedStoreRejectsEverything(t *testing.T) {
	s, _ := openTest(t, t.TempDir(), Config{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	id := idOf("x")
	if err := s.Put(id, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put: want ErrClosed, got %v", err)
	}
	if _, _, err := s.Get(id); !errors.Is(err, ErrClosed) {
		t.Fatalf("get: want ErrClosed, got %v", err)
	}
	if _, err := s.GC(); !errors.Is(err, ErrClosed) {
		t.Fatalf("gc: want ErrClosed, got %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: want ErrClosed, got %v", err)
	}
}

func TestVerifyAll(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Config{})
	good, bad := idOf("good"), idOf("bad")
	if err := s.Put(good, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(bad, []byte("bad")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "objects", bad[:2], bad), []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	failed := s.VerifyAll()
	if len(failed) != 1 || failed[0] != bad {
		t.Fatalf("VerifyAll = %v, want [%s]", failed, bad[:8])
	}
	if _, _, err := s.Get(good); err != nil {
		t.Fatalf("good artifact damaged by verify: %v", err)
	}
}

func TestMetricsGauges(t *testing.T) {
	s, clk := openTest(t, t.TempDir(), Config{MaxBytes: 10, MaxAge: time.Minute})
	reg := metrics.NewRegistry()
	s.Register(reg, "store")

	if err := s.Put(idOf("a"), []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(1)
	if err := s.Put(idOf("b"), []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(idOf("a")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(idOf("miss")); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"store/max_bytes":       10,
		"store/max_age_seconds": 60,
		"store/objects":         1,
		"store/bytes":           10,
		"store/puts":            2,
		"store/gets":            2,
		"store/hits":            1,
		"store/misses":          1,
		"store/corrupt":         0,
		"store/evicted":         1,
		"store/gc_runs":         1,
	}
	snap := reg.Snapshot()
	for path, v := range want {
		got, ok := snap.Get(path)
		if !ok {
			t.Fatalf("gauge %s not registered", path)
		}
		if got != v {
			t.Fatalf("%s = %d, want %d", path, got, v)
		}
	}
}

func TestGCDeterministicTieBreak(t *testing.T) {
	// Two artifacts stored at the same clock reading: eviction order
	// must fall back to id order, so two stores with identical
	// histories evict identically.
	run := func() []string {
		dir := t.TempDir()
		s, _ := openTest(t, dir, Config{MaxBytes: 10})
		for _, tag := range []string{"t1", "t2", "t3"} {
			if err := s.Put(idOf(tag), []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.GC(); err != nil {
			t.Fatal(err)
		}
		var evicted []string
		for _, tag := range []string{"t1", "t2", "t3"} {
			if _, _, err := s.Get(idOf(tag)); errors.Is(err, ErrEvicted) {
				evicted = append(evicted, tag)
			}
		}
		return evicted
	}
	a, b := run(), run()
	if len(a) != 2 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("eviction order diverged: %v vs %v", a, b)
	}
}
