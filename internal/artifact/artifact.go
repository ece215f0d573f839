// Package artifact is the persistent content-addressed result store
// behind drsd: a directory of job artifacts keyed by the service's
// content address (hex SHA-256 of the canonical job spec), each entry
// carrying the SHA-256 digest of its body so every read re-verifies
// the bytes it returns.
//
// The store exists because the simulator's results are
// bit-deterministic: a job's artifact is a pure function of its spec,
// so a stored artifact is provably byte-equal to recomputation. That
// makes the cache semantically invisible — a hit is a correctness
// no-op — and it makes corruption *detectable*: any byte that rots on
// disk breaks the stored digest, Get returns a typed ErrCorrupt, and
// the caller recomputes. The store never has to trust the disk.
//
// Durability model (crash anywhere, restart, no loss of integrity):
//
//   - Bodies are written to tmp/<id>, fsync'd, then renamed into
//     objects/<id[:2]>/<id>. A crash mid-write leaves only a tmp file;
//     a crash between rename and index append leaves an orphan object.
//     Both are deleted on the next Open.
//   - The index is an append-only JSONL log (index.go). Each Put or
//     eviction appends exactly one line after its object operation, so
//     the index never references bytes that are not fully on disk. A
//     crash mid-append leaves a truncated final line, which replay
//     tolerates and drops (the object it described becomes an orphan).
//   - Eviction appends a tombstone line before unlinking the body, so
//     "evicted" is distinguishable from "never stored" across
//     restarts — drsctl surfaces the two as different exit codes.
//
// Concurrency: a Store is safe for concurrent Put/Get/GC from any
// number of goroutines; one mutex serializes index and object
// mutation (artifacts are small relative to simulation cost, so the
// serialization is invisible next to the work it saves).
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Typed store errors. Callers branch on them: ErrCorrupt and
// ErrEvicted both mean "recompute", but only ErrCorrupt increments the
// corruption counters, and ErrEvicted maps to a distinct drsctl exit
// code (a job that existed and was garbage-collected is not a job the
// cluster never heard of).
var (
	// ErrNotFound reports an id the store has never held.
	ErrNotFound = errors.New("artifact: not found")
	// ErrEvicted reports an id whose body the GC policy removed; the
	// tombstone survives restarts.
	ErrEvicted = errors.New("artifact: evicted by gc")
	// ErrCorrupt reports a body whose bytes no longer match the digest
	// recorded at Put time. The entry is dropped so the next Get is a
	// clean miss and the caller's recompute can re-store it.
	ErrCorrupt = errors.New("artifact: stored bytes fail digest verification")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("artifact: store is closed")
	// ErrBadID reports an id that is not a 64-char lowercase hex
	// string. IDs name files; nothing else may reach the filesystem.
	ErrBadID = errors.New("artifact: id is not a hex sha-256")
)

// Meta describes one stored artifact.
type Meta struct {
	// Digest is the hex SHA-256 of the body, computed at Put and
	// re-verified on every Get.
	Digest string
	// Size is the body length in bytes.
	Size int64
	// PutUnix is the store clock's unix-seconds reading at Put time
	// (the age the GC policy evicts by).
	PutUnix int64
}

// Config shapes a store.
type Config struct {
	// Dir is the store root. Created if absent.
	Dir string
	// MaxBytes caps the total stored body bytes; GC evicts
	// oldest-first until under the cap (0 = unbounded).
	MaxBytes int64
	// MaxAge evicts artifacts older than this at GC time
	// (0 = no age limit).
	MaxAge time.Duration
	// Now supplies the store clock in unix seconds. nil selects the
	// real clock; tests inject virtual time so GC-age tests never
	// sleep. Artifact bytes themselves are never stamped — the clock
	// only orders evictions.
	Now func() int64
}

// Store is a persistent content-addressed artifact store rooted at one
// directory.
type Store struct {
	cfg Config

	mu      sync.Mutex
	entries map[string]*entry // id -> live entry or tombstone
	order   []string          // ids in first-seen order (deterministic iteration)
	bytes   int64             // total live body bytes
	log     *os.File          // index append handle
	closed  bool

	// Counters read by the registered gauges. Guarded by mu; gauges
	// take the lock too, so snapshots see consistent values.
	puts, gets, hits, misses int64
	corrupt, evicted, gcRuns int64
}

// entry is the in-memory index record for one id.
type entry struct {
	meta    Meta
	evicted bool // tombstone: body removed by GC
}

// Open loads (or creates) the store at cfg.Dir: replays the index log,
// deletes tmp leftovers and orphan objects from interrupted Puts, and
// opens the log for appending.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("artifact: empty store dir")
	}
	if cfg.Now == nil {
		cfg.Now = realNow
	}
	for _, d := range []string{cfg.Dir, filepath.Join(cfg.Dir, "objects"), filepath.Join(cfg.Dir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("artifact: creating %s: %w", d, err)
		}
	}
	s := &Store{cfg: cfg, entries: make(map[string]*entry)}
	if err := s.replay(); err != nil {
		return nil, err
	}
	if err := s.sweepOrphans(); err != nil {
		return nil, err
	}
	log, err := os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("artifact: opening index: %w", err)
	}
	s.log = log
	return s, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.cfg.Dir, "index") }

// objectPath fans ids out over 256 subdirectories so no single
// directory grows unboundedly.
func (s *Store) objectPath(id string) string {
	return filepath.Join(s.cfg.Dir, "objects", id[:2], id)
}

// replay rebuilds the in-memory index from the log. Later records win
// (a re-Put after eviction replaces the tombstone); a truncated final
// line — the signature of a crash mid-append — is dropped, leaving the
// object it described to the orphan sweep.
func (s *Store) replay() error {
	data, err := os.ReadFile(s.indexPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("artifact: reading index: %w", err)
	}
	recs, derr := decodeIndex(data)
	if derr != nil && !derr.Truncated {
		return fmt.Errorf("artifact: %w", derr)
	}
	for i := range recs {
		s.applyRecord(&recs[i])
	}
	if derr != nil && derr.Truncated {
		// Drop the partial tail so the next append starts on a clean
		// line boundary.
		if err := os.Truncate(s.indexPath(), int64(derr.Offset)); err != nil {
			return fmt.Errorf("artifact: truncating torn index tail: %w", err)
		}
	}
	return nil
}

// applyRecord folds one decoded index record into the in-memory map.
func (s *Store) applyRecord(r *record) {
	prev, seen := s.entries[r.ID]
	if !seen {
		s.order = append(s.order, r.ID)
	} else if !prev.evicted {
		s.bytes -= prev.meta.Size
	}
	switch r.Op {
	case opPut:
		s.entries[r.ID] = &entry{meta: Meta{Digest: r.Digest, Size: r.Size, PutUnix: r.Unix}}
		s.bytes += r.Size
	case opEvict:
		s.entries[r.ID] = &entry{evicted: true}
	case opDrop:
		delete(s.entries, r.ID)
		for i, o := range s.order {
			if o == r.ID {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
}

// sweepOrphans removes tmp leftovers and object files the index does
// not reference — the debris of crashes between write, rename and
// index append. An object without an index record has no digest and
// can never be served, so deletion is the only safe disposition.
func (s *Store) sweepOrphans() error {
	tmps, err := os.ReadDir(filepath.Join(s.cfg.Dir, "tmp"))
	if err != nil {
		return fmt.Errorf("artifact: reading tmp: %w", err)
	}
	for _, e := range tmps {
		if err := os.Remove(filepath.Join(s.cfg.Dir, "tmp", e.Name())); err != nil {
			return fmt.Errorf("artifact: sweeping tmp: %w", err)
		}
	}
	fans, err := os.ReadDir(filepath.Join(s.cfg.Dir, "objects"))
	if err != nil {
		return fmt.Errorf("artifact: reading objects: %w", err)
	}
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		dir := filepath.Join(s.cfg.Dir, "objects", fan.Name())
		objs, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("artifact: reading %s: %w", dir, err)
		}
		for _, o := range objs {
			id := o.Name()
			if e, ok := s.entries[id]; ok && !e.evicted {
				continue
			}
			if err := os.Remove(filepath.Join(dir, id)); err != nil {
				return fmt.Errorf("artifact: sweeping orphan %s: %w", id, err)
			}
		}
	}
	return nil
}

// validID reports whether id is a well-formed content address: exactly
// 64 lowercase hex characters.
func validID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Put stores body under id, replacing any previous entry or tombstone.
// The body lands via write-to-temp-then-rename, the index line lands
// after the rename, and the index append is flushed before Put
// returns — so a Put that returned is durable, and a Put that crashed
// is invisible.
func (s *Store) Put(id string, body []byte) error {
	if !validID(id) {
		return fmt.Errorf("%w: %q", ErrBadID, id)
	}
	sum := sha256.Sum256(body)
	meta := Meta{Digest: hex.EncodeToString(sum[:]), Size: int64(len(body))}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	meta.PutUnix = s.cfg.Now()

	tmp := filepath.Join(s.cfg.Dir, "tmp", id)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("artifact: staging %s: %w", id[:12], err)
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("artifact: writing %s: %w", id[:12], err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("artifact: syncing %s: %w", id[:12], err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("artifact: closing %s: %w", id[:12], err)
	}
	dst := s.objectPath(id)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("artifact: fan dir for %s: %w", id[:12], err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("artifact: publishing %s: %w", id[:12], err)
	}
	if err := s.appendLocked(&record{Op: opPut, ID: id, Digest: meta.Digest, Size: meta.Size, Unix: meta.PutUnix}); err != nil {
		return err
	}
	s.applyRecord(&record{Op: opPut, ID: id, Digest: meta.Digest, Size: meta.Size, Unix: meta.PutUnix})
	s.puts++
	return nil
}

// appendLocked writes one index record as a single line and syncs it.
func (s *Store) appendLocked(r *record) error {
	line, err := encodeRecord(r)
	if err != nil {
		return err
	}
	if _, err := s.log.Write(line); err != nil {
		return fmt.Errorf("artifact: appending index: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("artifact: syncing index: %w", err)
	}
	return nil
}

// Get returns the stored body for id after re-verifying it against the
// digest recorded at Put time. A verification failure removes the
// entry and its body and returns ErrCorrupt: the caller recomputes,
// and determinism guarantees the recomputation equals what the store
// should have held.
func (s *Store) Get(id string) ([]byte, Meta, error) {
	if !validID(id) {
		return nil, Meta{}, fmt.Errorf("%w: %q", ErrBadID, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, Meta{}, ErrClosed
	}
	s.gets++
	e, ok := s.entries[id]
	if !ok {
		s.misses++
		return nil, Meta{}, ErrNotFound
	}
	if e.evicted {
		s.misses++
		return nil, Meta{}, ErrEvicted
	}
	body, err := os.ReadFile(s.objectPath(id))
	if err != nil {
		// The index promised a body the filesystem no longer has —
		// treat exactly like corruption: drop and recompute.
		s.dropCorruptLocked(id, e)
		return nil, Meta{}, fmt.Errorf("%w (%s: body unreadable: %v)", ErrCorrupt, id[:12], err)
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != e.meta.Digest {
		s.dropCorruptLocked(id, e)
		return nil, Meta{}, fmt.Errorf("%w (%s)", ErrCorrupt, id[:12])
	}
	s.hits++
	return body, e.meta, nil
}

// dropCorruptLocked removes a failed entry so the next Get is a clean
// miss. The eviction tombstone is deliberately NOT used: corruption is
// not a policy decision, and a recompute should re-store under the
// same id.
func (s *Store) dropCorruptLocked(id string, e *entry) {
	s.corrupt++
	s.bytes -= e.meta.Size
	delete(s.entries, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	os.Remove(s.objectPath(id))
	// Best-effort drop record so a restart does not resurrect the
	// corrupt entry; if the append itself fails the orphan sweep on
	// the next Open removes the (already unlinked) body anyway.
	s.appendLocked(&record{Op: opDrop, ID: id, Unix: s.cfg.Now()})
}

// Len returns the number of live (non-tombstone) artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	//drslint:allow map-range -- pure count of live entries; no order dependence
	for _, e := range s.entries {
		if !e.evicted {
			n++
		}
	}
	return n
}

// Bytes returns the total live body bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// GC applies the size and age policy: every live artifact older than
// MaxAge is evicted, then oldest-first eviction continues until total
// bytes fit under MaxBytes. Eviction order is deterministic —
// (PutUnix, id) ascending — so two stores with identical histories
// evict identically. Returns how many artifacts were evicted.
func (s *Store) GC() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	s.gcRuns++
	now := s.cfg.Now()

	type cand struct {
		id   string
		meta Meta
	}
	var live []cand
	for _, id := range s.order {
		if e := s.entries[id]; !e.evicted {
			live = append(live, cand{id, e.meta})
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].meta.PutUnix != live[j].meta.PutUnix {
			return live[i].meta.PutUnix < live[j].meta.PutUnix
		}
		return live[i].id < live[j].id
	})

	maxAge := int64(s.cfg.MaxAge / time.Second)
	over := func() bool { return s.cfg.MaxBytes > 0 && s.bytes > s.cfg.MaxBytes }
	n := 0
	for _, c := range live {
		tooOld := maxAge > 0 && now-c.meta.PutUnix > maxAge
		if !tooOld && !over() {
			if maxAge == 0 {
				break // sorted oldest-first: nothing further evicts
			}
			continue
		}
		if err := s.evictLocked(c.id, c.meta, now); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// evictLocked tombstones one live entry: the evict record lands in the
// index first, then the body is unlinked, so a crash between the two
// leaves an orphan body (swept on Open), never a served-but-evicted
// inconsistency.
func (s *Store) evictLocked(id string, meta Meta, now int64) error {
	if err := s.appendLocked(&record{Op: opEvict, ID: id, Unix: now}); err != nil {
		return err
	}
	s.entries[id] = &entry{evicted: true}
	s.bytes -= meta.Size
	s.evicted++
	if err := os.Remove(s.objectPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("artifact: removing evicted %s: %w", id[:12], err)
	}
	return nil
}

// Register wires the store's gauges into a metrics registry under
// prefix (e.g. "store"): object/byte occupancy, hit/miss/corruption
// traffic, and the GC policy's activity — the numbers an operator
// watches to size MaxBytes.
func (s *Store) Register(reg *metrics.Registry, prefix string) {
	reg.Const(prefix+"/max_bytes", s.cfg.MaxBytes)
	reg.Const(prefix+"/max_age_seconds", int64(s.cfg.MaxAge/time.Second))
	g := func(name string, f func() int64) { reg.Gauge(prefix+"/"+name, f) }
	g("objects", func() int64 { return int64(s.Len()) })
	g("bytes", s.Bytes)
	g("puts", s.counter(&s.puts))
	g("gets", s.counter(&s.gets))
	g("hits", s.counter(&s.hits))
	g("misses", s.counter(&s.misses))
	g("corrupt", s.counter(&s.corrupt))
	g("evicted", s.counter(&s.evicted))
	g("gc_runs", s.counter(&s.gcRuns))
}

// counter returns a gauge closure reading one mu-guarded counter.
func (s *Store) counter(p *int64) func() int64 {
	return func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return *p
	}
}

// Close flushes and closes the index log. Further calls return
// ErrClosed — the cluster chaos harness relies on that to make an
// in-process "kill" stop a zombie service from writing to a store a
// restarted worker has reopened.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	return s.log.Close()
}

// VerifyAll re-reads and re-hashes every live artifact, returning the
// ids that failed verification (each is dropped exactly as a failed
// Get would).
//
//drslint:allow unreachable -- the store's consistency checker, which the corruption tests run
func (s *Store) VerifyAll() []string {
	s.mu.Lock()
	ids := make([]string, 0, len(s.order))
	for _, id := range s.order {
		if e := s.entries[id]; e != nil && !e.evicted {
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()
	var bad []string
	for _, id := range ids {
		if _, _, err := s.Get(id); errors.Is(err, ErrCorrupt) {
			bad = append(bad, id)
		}
	}
	return bad
}
