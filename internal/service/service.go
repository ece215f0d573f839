package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

// Admission errors. The HTTP layer maps them to 429 and 503; drsctl
// surfaces them verbatim.
var (
	// ErrQueueFull is returned when the bounded admission queue has no
	// room. Backpressure is explicit: the caller decides whether to
	// retry later, never the server.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining is returned once graceful shutdown has begun; the
	// service finishes what it admitted but takes nothing new.
	ErrDraining = errors.New("service: draining, not admitting jobs")
)

// transientError marks an error worth retrying (see MarkTransient).
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// MarkTransient wraps err so the worker retries the attempt with
// backoff instead of failing the job. Simulation errors are
// deterministic and never transient, so no runner marks one today.
//
//drslint:allow unreachable -- the only way tests reach the worker's retry path
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err carries the MarkTransient marker.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// Runner executes one job spec. progress receives epoch-barrier
// samples for observed run jobs; implementations must honor ctx (the
// per-job deadline, client disconnects and force-drain all arrive
// through it) and must produce output bytes that are a pure function
// of the spec — the determinism contract of the whole service rests on
// that. nil selects the built-in experiment runner.
type Runner func(ctx context.Context, spec *JobSpec, progress func(cycle, epochs int64)) ([]byte, error)

// Config sizes the service. The zero value of each field selects the
// default noted on it.
type Config struct {
	// Workers is the job worker pool size (default 2). Each job then
	// fans out internally on the cell scheduler per its spec's
	// Parallelism, so this bounds concurrent jobs, not concurrent work.
	Workers int
	// QueueDepth bounds the admission queue (default 16). Submissions
	// beyond running+queued capacity get ErrQueueFull.
	QueueDepth int
	// DefaultTimeout is the per-job execution deadline when the spec
	// does not set one (default 10m). The clock starts when a worker
	// picks the job up, so queue depth cannot change a job's outcome.
	DefaultTimeout time.Duration
	// MaxAttempts bounds execution attempts per job (default 3; only
	// transient failures retry).
	MaxAttempts int
	// RetryBaseDelay is the first retry backoff, doubled per attempt
	// (default 50ms).
	RetryBaseDelay time.Duration
	// EpochEventEvery thins the epoch progress stream: one event per N
	// barriers (default 16; 1 = every barrier).
	EpochEventEvery int64
	// MaxJobEvents caps a job's buffered event stream (default 1024).
	// Epoch events beyond the cap are counted and dropped; state
	// transitions always land.
	MaxJobEvents int
	// Runner overrides job execution (tests). nil = the built-in
	// experiment runner over the shared workload cache.
	Runner Runner
	// Clock paces retry backoff and job deadlines (nil = the real
	// clock). Tests inject a virtual clock so retry/deadline paths run
	// without sleeping.
	Clock Clock
	// Store, when set, is the persistent artifact store: submissions
	// whose content address is already stored are served from it
	// without executing, completed jobs are written through to it, and
	// GET /v1/artifacts/{id} exposes it to shard peers. Corrupt
	// entries detected on read fall back to recomputation.
	Store *artifact.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 50 * time.Millisecond
	}
	if c.EpochEventEvery <= 0 {
		c.EpochEventEvery = 16
	}
	if c.MaxJobEvents <= 0 {
		c.MaxJobEvents = 1024
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// Service is the deterministic job service: a content-addressed job
// registry, a bounded admission queue, a worker pool, and one shared
// workload cache. See the package comment for the contract.
type Service struct {
	cfg   Config
	cache *experiments.WorkloadCache
	reg   *metrics.Registry

	// baseCtx parents every job context; baseCancel is the force-drain
	// hammer when the drain deadline passes.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in admission order (deterministic listing)
	queue    chan *Job
	draining bool

	wg sync.WaitGroup // worker goroutines

	// Counters behind GET /metrics. Atomics because workers and
	// handlers bump them concurrently; the registry's gauges read them
	// with Load at snapshot time.
	submitted        atomic.Int64
	deduped          atomic.Int64
	rejectedFull     atomic.Int64
	rejectedDraining atomic.Int64
	rejectedInvalid  atomic.Int64
	started          atomic.Int64
	completed        atomic.Int64
	failed           atomic.Int64
	canceled         atomic.Int64
	retries          atomic.Int64
	panics           atomic.Int64
	running          atomic.Int64
	artifactHits     atomic.Int64
	artifactCorrupt  atomic.Int64
	artifactPutFails atomic.Int64
}

// New starts a service: the worker pool is live on return and Drain is
// the only way to stop it.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		cache:      experiments.NewWorkloadCache(),
		reg:        metrics.NewRegistry(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth),
	}
	s.registerMetrics()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s
}

// registerMetrics wires the service counters and the workload cache
// into the registry GET /metrics snapshots. Registration happens once,
// before any concurrent access; snapshots afterwards only read.
func (s *Service) registerMetrics() {
	s.reg.Const("service/workers", int64(s.cfg.Workers))
	s.reg.Const("service/queue_cap", int64(s.cfg.QueueDepth))
	s.reg.Gauge("service/queue_len", func() int64 { return int64(len(s.queue)) })
	s.reg.Gauge("service/jobs_submitted", s.submitted.Load)
	s.reg.Gauge("service/jobs_deduped", s.deduped.Load)
	s.reg.Gauge("service/jobs_rejected_queue_full", s.rejectedFull.Load)
	s.reg.Gauge("service/jobs_rejected_draining", s.rejectedDraining.Load)
	s.reg.Gauge("service/jobs_rejected_invalid", s.rejectedInvalid.Load)
	s.reg.Gauge("service/jobs_started", s.started.Load)
	s.reg.Gauge("service/jobs_completed", s.completed.Load)
	s.reg.Gauge("service/jobs_failed", s.failed.Load)
	s.reg.Gauge("service/jobs_canceled", s.canceled.Load)
	s.reg.Gauge("service/jobs_running", s.running.Load)
	s.reg.Gauge("service/retries", s.retries.Load)
	s.reg.Gauge("service/panics_recovered", s.panics.Load)
	s.reg.Gauge("service/workload_builds", func() int64 { return s.cache.Stats().Builds })
	s.reg.Gauge("service/workload_hits", func() int64 { return s.cache.Stats().Hits })
	if s.cfg.Store != nil {
		// Submissions answered from the persistent store without
		// executing, corrupt entries that fell back to recomputation,
		// and write-through failures (the job still succeeds; only
		// durability is lost).
		s.reg.Gauge("service/artifact_hits", s.artifactHits.Load)
		s.reg.Gauge("service/artifact_corrupt_recomputes", s.artifactCorrupt.Load)
		s.reg.Gauge("service/artifact_put_failures", s.artifactPutFails.Load)
		s.cfg.Store.Register(s.reg, "store")
	}
}

// Metrics snapshots the service registry (canonical sorted JSON via
// Snapshot.MarshalJSON).
func (s *Service) Metrics() *metrics.Snapshot { return s.reg.Snapshot() }

// Draining reports whether graceful shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Job returns the job with the given content address.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every known job in admission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// Submit admits a normalized, validated spec. Identical specs
// singleflight: if the content address already maps to a queued,
// running or done job, that job is returned with deduped=true and no
// new work is admitted — N concurrent submissions of one spec are one
// execution and one artifact. Failed and canceled jobs are replaced by
// a fresh attempt. detached marks fire-and-forget submissions that
// must outlive client disconnects.
func (s *Service) Submit(spec *JobSpec, detached bool) (j *Job, dedup bool, err error) {
	id := spec.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejectedDraining.Add(1)
		return nil, false, ErrDraining
	}
	if prev, ok := s.jobs[id]; ok && !replaceable(prev.State()) {
		s.deduped.Add(1)
		if detached {
			prev.markDetached()
		}
		return prev, true, nil
	}
	// Persistent-store read-through: a stored artifact is provably the
	// bytes an execution would produce (results are a pure function of
	// the spec), so a hit becomes an already-done job without touching
	// the queue. A corrupt entry has been dropped by Get and falls
	// through to recomputation; eviction and absence just mean "run it".
	if s.cfg.Store != nil {
		body, _, err := s.cfg.Store.Get(id)
		switch {
		case err == nil:
			s.artifactHits.Add(1)
			j = newJob(s.baseCtx, id, spec, detached, s.cfg.MaxJobEvents)
			j.finish(StateDone, body, "")
			if _, seen := s.jobs[id]; !seen {
				s.order = append(s.order, id)
			}
			s.jobs[id] = j
			return j, true, nil
		case errors.Is(err, artifact.ErrCorrupt):
			s.artifactCorrupt.Add(1)
		}
	}
	j = newJob(s.baseCtx, id, spec, detached, s.cfg.MaxJobEvents)
	select {
	case s.queue <- j:
	default:
		s.rejectedFull.Add(1)
		j.cancel()
		return nil, false, ErrQueueFull
	}
	if _, seen := s.jobs[id]; !seen {
		s.order = append(s.order, id)
	}
	s.jobs[id] = j
	s.submitted.Add(1)
	return j, false, nil
}

// replaceable reports whether a terminal state allows resubmission to
// start a fresh execution (done results are kept forever and reserved).
func replaceable(st State) bool {
	return st == StateFailed || st == StateCanceled
}

// noteInvalid counts a rejected submission payload (HTTP layer).
func (s *Service) noteInvalid() { s.rejectedInvalid.Add(1) }

// runJob drives one job to a terminal state on a worker goroutine:
// deadline, attempts, retry backoff, panic recovery, classification.
func (s *Service) runJob(j *Job) {
	s.started.Add(1)
	s.running.Add(1)
	defer s.running.Add(-1)

	timeout := s.cfg.DefaultTimeout
	if j.Spec.TimeoutMS > 0 {
		timeout = time.Duration(j.Spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := s.cfg.Clock.WithTimeout(j.ctx, timeout)
	defer cancel()

	var lastErr error
	for attempt := 1; ; attempt++ {
		j.setRunning(attempt)
		out, err := s.attempt(ctx, j)
		if err == nil {
			s.storeArtifact(j.ID, out)
			j.finish(StateDone, out, "")
			s.completed.Add(1)
			return
		}
		lastErr = err
		if ctx.Err() != nil || !IsTransient(err) || attempt >= s.cfg.MaxAttempts {
			break
		}
		s.retries.Add(1)
		j.emitRetry(attempt, err)
		backoff := s.cfg.RetryBaseDelay << (attempt - 1)
		select {
		case <-ctx.Done():
		case <-s.cfg.Clock.After(backoff):
		}
		if ctx.Err() != nil {
			break
		}
	}
	switch {
	case errors.Is(j.ctx.Err(), context.Canceled):
		// The job's own scope was canceled: every waiter disconnected,
		// or a force-drain tore the service down.
		j.finish(StateCanceled, nil, "canceled: "+lastErr.Error())
		s.canceled.Add(1)
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		j.finish(StateFailed, nil, fmt.Sprintf("deadline %v exceeded: %s", timeout, lastErr))
		s.failed.Add(1)
	default:
		j.finish(StateFailed, nil, lastErr.Error())
		s.failed.Add(1)
	}
}

// storeArtifact writes a completed job's bytes through to the
// persistent store (before waiters wake, so a served result is already
// durable) and applies the GC policy. Store failure never fails the
// job — the bytes are still in memory and recomputable — it only costs
// durability, and the counter makes that visible.
func (s *Service) storeArtifact(id string, body []byte) {
	if s.cfg.Store == nil {
		return
	}
	if err := s.cfg.Store.Put(id, body); err != nil {
		s.artifactPutFails.Add(1)
		return
	}
	if _, err := s.cfg.Store.GC(); err != nil {
		s.artifactPutFails.Add(1)
	}
}

// attempt runs one execution attempt with panic containment: a
// crashing simulation fails its own job, never the daemon. Panics are
// deterministic in this codebase (same spec, same panic), so they are
// not retried.
func (s *Service) attempt(ctx context.Context, j *Job) (artifact []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			err = fmt.Errorf("service: job %s panicked: %v", j.ID[:12], r)
		}
	}()
	run := s.cfg.Runner
	if run == nil {
		run = s.run
	}
	return run(ctx, j.Spec, j.emitEpoch)
}

// Drain is graceful shutdown: stop admitting (Submit returns
// ErrDraining), let the workers finish everything already admitted,
// and return once the pool is idle. If ctx expires first, every
// outstanding job context is canceled — in-flight engines abort at
// their next epoch barrier — the pool is waited out, and the forced
// shutdown is reported as an error.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: already draining")
	}
	s.draining = true
	close(s.queue) // workers exit after emptying it
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
	}
	s.baseCancel()
	<-idle
	return fmt.Errorf("service: drain deadline passed, canceled in-flight jobs: %w", ctx.Err())
}
