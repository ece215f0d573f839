package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/harness"
	"repro/internal/scene"
	"repro/internal/service"
	"repro/internal/shard"
)

// drsdMix is two in-process drsd stacks wired the way cmd/drsd wires
// them — a one-worker service over a persistent artifact store, behind
// shard routing — on loopback listeners, driven by two closed-loop
// clients. Each client round submits a fresh spec and waits for it
// (miss), resubmits a spec it already completed (hit, deduplicated by
// the owner) and fetches a completed artifact from its owner's store
// (fetch).
type drsdMix struct {
	cfg     config
	root    string
	nodes   []*node
	router  *shard.Router
	clients []*client
	rounds  atomic.Int64 // op ids of traced rounds

	// Traced-phase observations.
	mu        sync.Mutex
	bodies    map[string][]byte // miss bodies by job id
	forwarded int
	submits   int
	extraMS   []float64        // forwarded minus direct hit latency
	metrics0  map[string]int64 // summed node counters before the traced ops
	artifacts []metric
}

// node is one drsd stack.
type node struct {
	url    string
	svc    *service.Service
	store  *artifact.Store
	srv    *http.Server
	served chan error
}

// client is one closed-loop caller with one keep-alive connection per
// node. Its fresh specs are every other entry of the seeded sequence.
type client struct {
	hc    *http.Client
	rng   *rand.Rand
	specs []*service.JobSpec
	next  int
	done  []completed
}

type completed struct {
	id, owner  string
	spec, body []byte
}

func newDrsdMix(cfg config, tr *tracer, parent, op int) (inst instance, err error) {
	m := &drsdMix{cfg: cfg, bodies: make(map[string][]byte)}
	defer func() {
		if err != nil {
			m.close()
		}
	}()
	if m.root, err = os.MkdirTemp(cfg.work, "drsd-mix-"); err != nil {
		return nil, err
	}
	var lns []net.Listener
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	if m.router, err = shard.NewRouter(urls); err != nil {
		return nil, err
	}
	for i, ln := range lns {
		n, err := startNode(filepath.Join(m.root, fmt.Sprintf("node%d", i)), ln, urls[i], m.router)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, err
		}
		m.nodes = append(m.nodes, n)
	}
	seq := mixSequence(cfg)
	for c := 0; c < 2; c++ {
		cl := &client{
			hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			rng: rand.New(rand.NewPCG(cfg.seed, uint64(c))),
		}
		for i := c; i < len(seq); i += 2 {
			cl.specs = append(cl.specs, seq[i])
		}
		m.clients = append(m.clients, cl)
	}
	err = tr.do("drsd.warm", parent, op, func(int) error { return m.warmCaches() })
	return m, err
}

func startNode(dir string, ln net.Listener, url string, router *shard.Router) (*node, error) {
	store, err := artifact.Open(artifact.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: 1, Store: store})
	h, err := shard.Wrap(svc.Handler(), router, url, nil)
	if err != nil {
		svc.Drain(context.Background())
		store.Close()
		return nil, err
	}
	n := &node{url: url, svc: svc, store: store, served: make(chan error, 1),
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}}
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

// close drains both services, stops their servers, closes the stores and
// removes the temporary directory.
func (m *drsdMix) close() error {
	var errs []error
	for _, n := range m.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, n.svc.Drain(ctx))
		errs = append(errs, n.srv.Shutdown(ctx))
		cancel()
		if err := <-n.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		errs = append(errs, n.store.Close())
	}
	for _, c := range m.clients {
		c.hc.CloseIdleConnections()
	}
	if m.root != "" {
		errs = append(errs, os.RemoveAll(m.root))
	}
	return errors.Join(errs...)
}

// mixSequence is the seeded sequence of fresh run specs: the whole space
// scene x policy x scheduler x device x bounce x triangle budget, each
// spec once. It is built in blocks that hold every (policy, device,
// bounce, budget) combination once, in seeded order, and every scene and
// scheduler equally often: combination i takes (scene, scheduler) pair
// (offset[i] + block) mod pairs, and the seeded offsets cover every
// residue equally. Each block thus has the same mix of the factors that
// set a job's cost, so a run's misses cost the same whichever seed it
// has, and no spec repeats across blocks.
func mixSequence(cfg config) []*service.JobSpec {
	rng := rand.New(rand.NewPCG(cfg.seed, 0x6d6978))
	scheds := harness.Schedulers().Names()
	type combo struct {
		policy, device string
		bounce, tris   int
	}
	var combos []combo
	for _, p := range harness.Policies().Names() {
		for _, d := range []string{"gtx780", "modern-mid"} {
			for b := 1; b <= 3; b++ {
				for _, t := range cfg.mixTris {
					combos = append(combos, combo{p, d, b, t})
				}
			}
		}
	}
	pairs := len(scene.Benchmarks) * len(scheds)
	offset := rng.Perm(len(combos))
	var seq []*service.JobSpec
	for block := 0; block < pairs; block++ {
		for _, i := range rng.Perm(len(combos)) {
			c, pair := combos[i], (offset[i]+block)%pairs
			spec := &service.JobSpec{
				Kind:             service.KindRun,
				Scene:            scene.Benchmarks[pair%len(scene.Benchmarks)].String(),
				Policy:           c.policy,
				Sched:            scheds[pair/len(scene.Benchmarks)],
				ArchConfig:       c.device,
				Bounce:           c.bounce,
				Tris:             c.tris,
				Width:            cfg.mixWidth,
				Height:           cfg.mixHeight,
				MaxRaysPerBounce: cfg.mixRays,
				Parallelism:      1,
			}
			spec.Normalize()
			seq = append(seq, spec)
		}
	}
	return seq
}

// warmCaches gives each node every (scene, budget) workload the timed
// specs need, with one small job per pair that the node owns. These
// specs cap their rays below the timed specs' cap, so they never
// collide with a timed miss.
func (m *drsdMix) warmCaches() error {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	errs := make([]error, len(m.nodes))
	var wg sync.WaitGroup
	for i, n := range m.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, sc := range scene.Benchmarks {
				for _, tris := range m.cfg.mixTris {
					spec := m.ownedWarmSpec(sc, tris, n.url)
					code, _, err := do(hc, http.MethodPost, n.url+"/v1/jobs?wait=1", spec.Canonical())
					if err == nil && code != http.StatusOK {
						err = fmt.Errorf("status %d", code)
					}
					if err != nil {
						errs[i] = fmt.Errorf("warming %s: %w", n.url, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (m *drsdMix) ownedWarmSpec(sc scene.Benchmark, tris int, owner string) *service.JobSpec {
	for rays := 1; ; rays++ {
		spec := &service.JobSpec{Kind: service.KindRun, Scene: sc.String(), Arch: "aila", Bounce: 1, Tris: tris,
			Width: m.cfg.mixWidth, Height: m.cfg.mixHeight, MaxRaysPerBounce: rays, Parallelism: 1}
		spec.Normalize()
		if m.router.Owner(spec.ID()) == owner {
			return spec
		}
	}
}

// do sends one request and reads the whole response body.
func do(hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// mixStats is one client's observations of a phase.
type mixStats struct {
	round, miss, hit, fetch []float64 // ms
	jobs                    int
	errs                    []error
}

// run drives both clients until the deadline, each at least one round.
// An op is one client's round; its time is the sum of its three calls.
// Heap allocation is process-wide, so it is reported per round over the
// whole phase. The phase also carries the client-side latency of each
// kind of call.
func (m *drsdMix) run(deadline time.Time, tr *tracer) *phase {
	if tr != nil {
		m.metrics0 = m.nodeCounters()
	}
	gc0, a0, t0 := readGC(), totalAllocMiB(), time.Now()
	stats := make([]mixStats, len(m.clients))
	var wg sync.WaitGroup
	for i, c := range m.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				m.round(c, tr, &stats[i])
			}
		}()
	}
	wg.Wait()
	allocMiB := totalAllocMiB() - a0
	ph := &phase{}
	ph.finish(gc0, t0)
	var all mixStats
	for _, s := range stats {
		for _, v := range s.round {
			ph.opSecs = append(ph.opSecs, v/1000)
		}
		all.miss = append(all.miss, s.miss...)
		all.hit = append(all.hit, s.hit...)
		all.fetch = append(all.fetch, s.fetch...)
		ph.attempted += s.jobs
		for _, err := range s.errs {
			ph.fail(err)
		}
	}
	ph.opAlloc = []float64{ratio(allocMiB, float64(ph.ops()))}
	ph.extra = []metric{
		timing("drsd.miss_ms_p50", "ms", all.miss),
		tail("drsd.miss_ms_p90", "ms", all.miss, 0.9),
		timing("drsd.hit_ms_p50", "ms", all.hit),
		tail("drsd.hit_ms_p90", "ms", all.hit, 0.9),
		timing("drsd.fetch_ms_p50", "ms", all.fetch),
		tail("drsd.fetch_ms_p90", "ms", all.fetch, 0.9),
		{Name: "drsd.jobs_per_s", Value: float64(ph.attempted-ph.failed) / ph.wall.Seconds(), Unit: "1/s", N: ph.attempted},
	}
	if tr != nil {
		var err error
		if m.artifacts, err = m.replayArtifacts(tr); err != nil {
			ph.fail(err)
		}
	}
	return ph
}

// warm runs one untimed round per client.
func (m *drsdMix) warm() error {
	return errors.Join(m.run(time.Time{}, nil).errs...)
}

// round is one client's miss, hit and fetch. A failed miss ends the
// round.
func (m *drsdMix) round(c *client, tr *tracer, st *mixStats) {
	st.jobs++
	if c.next >= len(c.specs) {
		st.errs = append(st.errs, fmt.Errorf("drsd-mix: spec sequence exhausted after %d misses", c.next))
		return
	}
	op := int(m.rounds.Add(1)) - 1
	root := tr.begin("op", 0, op)
	defer tr.end(root)
	spec := c.specs[c.next]
	c.next++
	entry := m.nodes[c.rng.IntN(len(m.nodes))].url
	miss, err := m.miss(c, tr, root, op, spec, entry)
	if err != nil {
		st.errs = append(st.errs, err)
		return
	}
	st.miss = append(st.miss, miss)
	j := c.done[c.rng.IntN(len(c.done))]
	entry = m.nodes[c.rng.IntN(len(m.nodes))].url
	k := c.done[c.rng.IntN(len(c.done))]
	st.jobs += 2
	hit, err := m.hit(c, tr, root, op, j, entry)
	if err != nil {
		st.errs = append(st.errs, err)
	}
	fetch, err2 := m.fetch(c, tr, root, op, k)
	if err2 != nil {
		st.errs = append(st.errs, err2)
	}
	if err != nil || err2 != nil {
		return
	}
	st.hit, st.fetch = append(st.hit, hit), append(st.fetch, fetch)
	st.round = append(st.round, miss+hit+fetch)
}

// miss submits a fresh spec through entry and returns the milliseconds
// from submission to the last artifact byte. Untraced, it blocks on
// ?wait=1. Traced, it submits without waiting, watches the job's events
// on the owner to time its queue wait and its run, then fetches the
// result.
func (m *drsdMix) miss(c *client, tr *tracer, root, op int, spec *service.JobSpec, entry string) (float64, error) {
	id, owner, body := spec.ID(), m.router.Owner(spec.ID()), spec.Canonical()
	span := tr.begin("drsd.miss", root, op)
	t0 := time.Now()
	var art []byte
	var err error
	if tr == nil {
		var code int
		code, art, err = do(c.hc, http.MethodPost, entry+"/v1/jobs?wait=1", body)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, art)
		}
	} else {
		art, err = m.watchedMiss(c, tr, span, op, id, body, entry, owner, t0)
	}
	lat := time.Since(t0)
	tr.end(span)
	if err != nil {
		return 0, fmt.Errorf("miss %s via %s: %w", id[:12], entry, err)
	}
	if err := m.checkMiss(id, art); err != nil {
		return 0, err
	}
	c.done = append(c.done, completed{id: id, owner: owner, spec: body, body: art})
	if tr != nil {
		m.mu.Lock()
		m.bodies[id] = art
		m.noteSubmit(entry, owner)
		m.mu.Unlock()
	}
	return ms(lat), nil
}

// noteSubmit counts a traced submission and whether entry forwarded it.
// Callers hold m.mu.
func (m *drsdMix) noteSubmit(entry, owner string) {
	m.submits++
	if entry != owner {
		m.forwarded++
	}
}

// checkMiss verifies that a miss body is the artifact of its spec and,
// for pinned specs, that its bytes are the pinned ones.
func (m *drsdMix) checkMiss(id string, body []byte) error {
	var art struct {
		ID     string `json:"id"`
		Rays   int    `json:"rays"`
		Cycles int64  `json:"cycles"`
	}
	if err := json.Unmarshal(body, &art); err != nil {
		return fmt.Errorf("miss %s: decoding artifact: %w", id[:12], err)
	}
	if art.ID != id || art.Rays <= 0 || art.Cycles <= 0 {
		return fmt.Errorf("miss %s: artifact for %s with %d rays and %d cycles", id[:12], art.ID, art.Rays, art.Cycles)
	}
	if m.cfg.pins == nil {
		return nil
	}
	if want, ok := m.cfg.pins.DrsdArtifacts[id]; ok {
		if got := sha256Hex(body); got != want {
			return fmt.Errorf("miss %s: artifact sha256 %s, pinned %s", id[:12], got, want)
		}
	}
	return nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// watchedMiss is the traced miss: an asynchronous submission, the job's
// event stream on its owner, and the result fetch. The running and
// terminal events are timestamped as they arrive; a job already running
// when the stream opens is timed from the moment the stream delivers it.
func (m *drsdMix) watchedMiss(c *client, tr *tracer, parent, op int, id string, spec []byte, entry, owner string, t0 time.Time) ([]byte, error) {
	code, body, err := do(c.hc, http.MethodPost, entry+"/v1/jobs", spec)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("status %d: %s", code, body)
	}
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Get(owner + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	var running, done time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if json.Unmarshal([]byte(data), &ev) != nil || ev.Type != service.EventState {
			continue
		}
		switch {
		case ev.State == service.StateRunning && running.IsZero():
			running = time.Now()
		case ev.State.Terminal():
			done = time.Now()
		}
	}
	scanErr := sc.Err()
	resp.Body.Close()
	if scanErr != nil {
		return nil, fmt.Errorf("reading events: %w", scanErr)
	}
	if running.IsZero() || done.IsZero() {
		return nil, fmt.Errorf("event stream ended without running and terminal states")
	}
	tr.add("service.queue", parent, op, t0, running)
	tr.add("service.run", parent, op, running, done)
	code, body, err = do(c.hc, http.MethodGet, owner+"/v1/jobs/"+id+"/result", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result status %d: %s", code, body)
	}
	return body, err
}

// hit resubmits a completed spec through entry and checks that the body
// is the miss's bytes. Traced, a hit that entry forwards is sent again
// straight to the owner, which times the forward hop.
func (m *drsdMix) hit(c *client, tr *tracer, root, op int, j completed, entry string) (float64, error) {
	span := tr.begin("drsd.hit", root, op)
	t0 := time.Now()
	err := resubmit(c, j, entry)
	lat := time.Since(t0)
	tr.end(span)
	if err != nil || tr == nil {
		return ms(lat), err
	}
	m.mu.Lock()
	m.noteSubmit(entry, j.owner)
	m.mu.Unlock()
	if entry != j.owner {
		direct := tr.begin("shard.direct_hit", root, op)
		t1 := time.Now()
		err = resubmit(c, j, j.owner)
		extra := lat - time.Since(t1)
		tr.end(direct)
		m.mu.Lock()
		m.extraMS = append(m.extraMS, ms(extra))
		m.mu.Unlock()
	}
	return ms(lat), err
}

func resubmit(c *client, j completed, entry string) error {
	code, body, err := do(c.hc, http.MethodPost, entry+"/v1/jobs?wait=1", j.spec)
	switch {
	case err != nil:
		return fmt.Errorf("hit %s via %s: %w", j.id[:12], entry, err)
	case code != http.StatusOK:
		return fmt.Errorf("hit %s via %s: status %d: %s", j.id[:12], entry, code, body)
	case !bytes.Equal(body, j.body):
		return fmt.Errorf("hit %s via %s: body differs from the miss body", j.id[:12], entry)
	}
	return nil
}

// fetch reads a completed artifact from its owner's store and checks
// that the bytes are the miss's.
func (m *drsdMix) fetch(c *client, tr *tracer, root, op int, k completed) (float64, error) {
	span := tr.begin("drsd.fetch", root, op)
	t0 := time.Now()
	code, body, err := do(c.hc, http.MethodGet, k.owner+"/v1/artifacts/"+k.id, nil)
	lat := time.Since(t0)
	tr.end(span)
	switch {
	case err != nil:
		return 0, fmt.Errorf("fetch %s: %w", k.id[:12], err)
	case code != http.StatusOK:
		return 0, fmt.Errorf("fetch %s: status %d: %s", k.id[:12], code, body)
	case !bytes.Equal(body, k.body):
		return 0, fmt.Errorf("fetch %s: body differs from the miss body", k.id[:12])
	}
	return ms(lat), nil
}

// nodeCounters sums the counters of both nodes' /metrics.
func (m *drsdMix) nodeCounters() map[string]int64 {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	out := make(map[string]int64)
	for _, n := range m.nodes {
		code, body, err := do(hc, http.MethodGet, n.url+"/metrics", nil)
		if err != nil || code != http.StatusOK {
			continue
		}
		var snap map[string]int64
		if json.Unmarshal(body, &snap) != nil {
			continue
		}
		for k, v := range snap {
			out[k] += v
		}
	}
	return out
}

// replayArtifacts puts every body the traced misses produced into a
// fresh store, reads each back, and times both.
func (m *drsdMix) replayArtifacts(tr *tracer) ([]metric, error) {
	store, err := artifact.Open(artifact.Config{Dir: filepath.Join(m.root, "replay")})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	var total float64
	for id, body := range m.bodies {
		t0 := time.Now()
		if err := store.Put(id, body); err != nil {
			return nil, err
		}
		t1 := time.Now()
		got, _, err := store.Get(id)
		t2 := time.Now()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, body) {
			return nil, fmt.Errorf("artifact %s: stored bytes differ", id[:12])
		}
		tr.add("artifact.put", 0, -1, t0, t1)
		tr.add("artifact.get", 0, -1, t1, t2)
		total += float64(len(body))
	}
	return []metric{{Name: "artifact.bytes_per_object", Value: ratio(total, float64(len(m.bodies))), Unit: "bytes", N: len(m.bodies)}}, nil
}

func (m *drsdMix) layers(_ *phase, spans []span) []metric {
	after := m.nodeCounters()
	delta := func(k string) float64 { return float64(after[k] - m.metrics0[k]) }
	queue, run, put := spanMS(spans, "service.queue"), spanMS(spans, "service.run"), spanMS(spans, "artifact.put")
	out := []metric{
		timing("service.queue_ms_p50", "ms", queue),
		tail("service.queue_ms_p90", "ms", queue, 0.9),
		timing("service.run_ms_p50", "ms", run),
		tail("service.run_ms_p90", "ms", run, 0.9),
		{Name: "service.jobs_submitted", Value: delta("service/jobs_submitted"), Unit: "count"},
		{Name: "service.jobs_deduped", Value: delta("service/jobs_deduped"), Unit: "count"},
		{Name: "service.retries", Value: delta("service/retries"), Unit: "count"},
		{Name: "service.workload_builds", Value: delta("service/workload_builds"), Unit: "count"},
		{Name: "experiments.cache_builds", Value: delta("service/workload_builds"), Unit: "count"},
		{Name: "experiments.cache_hits", Value: delta("service/workload_hits"), Unit: "count"},
		timing("artifact.put_ms_p50", "ms", put),
		tail("artifact.put_ms_p90", "ms", put, 0.9),
		timing("artifact.get_ms_p50", "ms", spanMS(spans, "artifact.get")),
		{Name: "shard.forwarded_frac", Value: ratio(float64(m.forwarded), float64(m.submits)), Unit: "ratio", N: m.submits},
		timing("shard.forward_extra_ms_p50", "ms", m.extraMS),
	}
	return append(out, m.artifacts...)
}
