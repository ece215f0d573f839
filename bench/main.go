// Command bench is the repository's benchmark: four workloads that
// stress different layers of the simulator and the drsd service, each
// checked for correct outputs and reported as end-to-end metrics, plus a
// traced run that splits the same work into per-layer metrics.
//
//	bash bench/run.sh                                  # all workloads, one child process each
//	bash bench/run.sh --workload fig10-grid --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload modern-big --trace 1  # per-layer metrics and a Chrome trace
//
// The last line of a single-workload run is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end list, with --trace 1 the per-layer list
// (see README.md and BENCHMARK.json at the repository root).
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
)

// config is the scale of every workload. fullScale is what the benchmark
// measures; the smoke test runs a tiny one.
type config struct {
	nproc int
	seed  uint64
	work  string // directory for temporary stores and trace files

	// fig10-grid and modern-big: the conference room workload.
	tris, width, height, bounces int
	bigBounce                    int

	// build: experiments.DefaultParams, the scale of the committed results.
	buildTris, buildWidth, buildHeight int

	// drsd-mix: the run-spec space of the timed misses.
	mixTris                      []int
	mixWidth, mixHeight, mixRays int

	pins *pins // pinned outputs; nil at scales that have none
}

func fullScale(nproc int, seed uint64, work string, p *pins) config {
	d := experiments.DefaultParams()
	return config{
		nproc: nproc, seed: seed, work: work,
		tris: 12000, width: 192, height: 144, bounces: 2, bigBounce: 2,
		buildTris: d.Tris, buildWidth: d.Width, buildHeight: d.Height,
		mixTris: []int{4000, 8000}, mixWidth: 160, mixHeight: 120, mixRays: 4096,
		pins: p,
	}
}

func (c config) buildParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Tris, p.Width, p.Height = c.buildTris, c.buildWidth, c.buildHeight
	return p
}

// pins are outputs recorded from the full-scale workloads, checked on
// every run. modern-big's pins hold for seed 1 and drsd-mix's for the
// specs they name; fig10-grid and build have fixed inputs.
type pins struct {
	Fig10Figure   string             `json:"fig10_figure_sha256"`
	ModernBig     map[string]outcome `json:"modern_big_seed1"`
	BuildTraces   map[string]string  `json:"build_traces_sha256"`
	DrsdArtifacts map[string]string  `json:"drsd_artifacts_sha256"`
}

//go:embed pinned.json
var pinnedJSON []byte

// instance is a set-up workload. run times ops until the deadline, traced
// when tr is non-nil; layers reports the per-layer metrics of a traced
// phase.
type instance interface {
	warm() error
	run(deadline time.Time, tr *tracer) *phase
	layers(traced *phase, spans []span) []metric
	close() error
}

type workload struct {
	name, why string
	setup     func(cfg config, tr *tracer, parent, op int) (instance, error)
}

var workloads = []workload{
	{"fig10-grid", "The paper's Figure 10/11 grid: Aila, DMK, TBC and DRS on two bounces, spread over nproc cellsched workers; host time is per-SMX compute.", newFig10Grid},
	{"modern-big", "Aila then DRS on the 128-SMX modern-big device, one run at a time: the epoch barrier's per-SMX handoffs and per-run setup dominate.", newModernBig},
	{"build", "Workload builds for all four scenes from fresh state, no simulation: scene, BVH, path-traced capture. A simulator change must not move it.", newBuild},
	{"drsd-mix", "Two drsd shards under two clients mixing fresh jobs, deduplicated resubmissions and artifact fetches: service, store and forward hop.", newDrsdMix},
}

// decl declares a metric BENCHMARK.json lists.
type decl struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics every untraced run prints.
var endToEnd = []decl{
	{"op_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mib_per_op", "MiB", "lower", 0.10},
	{"peak_rss_mib", "MiB", "lower", 0.25},
}

// perLayer are the metrics every traced run prints. A workload that does
// not exercise a layer reports 0 for it, as does a tail percentile with
// fewer than ten samples beyond it.
var perLayer = []decl{
	{"scene.generate_ms", "ms", "lower", 0},
	{"bvh.build_ms", "ms", "lower", 0},
	{"bvh.lbvh_ms", "ms", "lower", 0},
	{"bvh.nodes", "count", "lower", 0},
	{"render.render_ms", "ms", "lower", 0},
	{"render.rays_captured", "count", "lower", 0},
	{"kernels.scenedata_ms", "ms", "lower", 0},
	{"experiments.build_ms", "ms", "lower", 0},
	{"experiments.cache_builds", "count", "lower", 0},
	{"experiments.cache_hits", "count", "higher", 0},
	{"cellsched.cells", "count", "lower", 0},
	{"cellsched.busy_frac", "ratio", "higher", 0},
	{"cellsched.cell_wait_ms_p50", "ms", "lower", 0},
	{"cellsched.straggler_ms", "ms", "lower", 0},
	{"harness.setup_ms_p50", "ms", "lower", 0},
	{"harness.assemble_ms_p50", "ms", "lower", 0},
	{"harness.alloc_mib_per_run", "MiB", "lower", 0},
	{"harness.run_ms.aila", "ms", "lower", 0},
	{"harness.run_ms.dmk", "ms", "lower", 0},
	{"harness.run_ms.tbc", "ms", "lower", 0},
	{"harness.run_ms.drs", "ms", "lower", 0},
	{"simt.smx", "count", "lower", 0},
	{"simt.epochs", "count", "lower", 0},
	{"simt.epoch_us_p50", "us", "lower", 0},
	{"simt.epoch_us_p99", "us", "lower", 0},
	{"simt.sim_cycles", "cycles", "lower", 0},
	{"simt.warp_instrs", "count", "lower", 0},
	{"simt.host_ns_per_warp_instr", "ns", "lower", 0},
	{"simt.simd_eff", "ratio", "higher", 0},
	{"memsys.l1tex_miss_rate", "ratio", "lower", 0},
	{"memsys.l2_accesses", "count", "lower", 0},
	{"memsys.l2_miss_rate", "ratio", "lower", 0},
	{"memsys.l2_queue_max", "count", "lower", 0},
	{"core.rays_moved", "count", "lower", 0},
	{"core.rdctrl_stall_rate", "ratio", "lower", 0},
	{"reorder.rays_moved", "count", "lower", 0},
	{"policy.drs_host_cost_x", "x", "lower", 0},
	{"service.queue_ms_p50", "ms", "lower", 0},
	{"service.queue_ms_p90", "ms", "lower", 0},
	{"service.run_ms_p50", "ms", "lower", 0},
	{"service.run_ms_p90", "ms", "lower", 0},
	{"service.jobs_submitted", "count", "higher", 0},
	{"service.jobs_deduped", "count", "higher", 0},
	{"service.retries", "count", "lower", 0},
	{"service.workload_builds", "count", "lower", 0},
	{"artifact.put_ms_p50", "ms", "lower", 0},
	{"artifact.put_ms_p90", "ms", "lower", 0},
	{"artifact.get_ms_p50", "ms", "lower", 0},
	{"artifact.bytes_per_object", "bytes", "lower", 0},
	{"shard.forwarded_frac", "ratio", "lower", 0},
	{"shard.forward_extra_ms_p50", "ms", "lower", 0},
	{"drsd.miss_ms_p50", "ms", "lower", 0},
	{"drsd.miss_ms_p90", "ms", "lower", 0},
	{"drsd.hit_ms_p50", "ms", "lower", 0},
	{"drsd.hit_ms_p90", "ms", "lower", 0},
	{"drsd.fetch_ms_p50", "ms", "lower", 0},
	{"drsd.fetch_ms_p90", "ms", "lower", 0},
	{"drsd.jobs_per_s", "1/s", "higher", 0},
	{"go.gc_cycles_per_op", "count", "lower", 0},
	{"go.gc_cpu_frac", "ratio", "lower", 0},
	{"trace.overhead_x", "x", "lower", 0},
}

// setupPasses is how many times a run sets its workload up from fresh
// state; setup_s is their median and the last pass is kept.
const setupPasses = 3

// result is one workload run.
type result struct {
	metrics           []metric
	raw               map[string][]float64 // per-op samples behind the end-to-end timings
	selfTimes         []selfTime
	attempted, failed int
	errs              []error
}

// runWorkload sets w up, warms it, times it for seconds and, when
// traced, times it again with spans. traceFile receives the spans.
func runWorkload(w workload, cfg config, seconds float64, traced bool, traceFile string) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var inst instance
	var setup []float64
	for pass := 1; pass <= setupPasses; pass++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: closing set-up pass %d: %w", w.name, pass-1, err)
			}
		}
		start := time.Now()
		err := tr.do("setup", 0, -pass, func(id int) (err error) {
			inst, err = w.setup(cfg, tr, id, -pass)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer inst.close()
	if err := inst.warm(); err != nil {
		return nil, fmt.Errorf("%s: warm-up op: %w", w.name, err)
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	dur := time.Duration(seconds * float64(time.Second))
	plain := inst.run(time.Now().Add(dur), nil)
	res := &result{attempted: plain.attempted, failed: plain.failed, errs: plain.errs}
	if !traced {
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		res.raw = map[string][]float64{"op_s": plain.opSecs, "setup_s": setup, "alloc_mib_per_op": plain.opAlloc}
		res.metrics = append([]metric{
			timing("op_s", "s", plain.opSecs),
			timing("setup_s", "s", setup),
			timing("alloc_mib_per_op", "MiB", plain.opAlloc),
			{Name: "peak_rss_mib", Value: rss, Unit: "MiB"},
			{Name: "failed_frac", Value: ratio(float64(plain.failed), float64(plain.attempted)), Unit: "ratio", N: plain.attempted},
		}, plain.extra...)
		return res, nil
	}
	withSpans := inst.run(time.Now().Add(dur), tr)
	res.attempted += withSpans.attempted
	res.failed += withSpans.failed
	res.errs = append(res.errs, withSpans.errs...)
	spans := tr.snapshot()
	got := append(inst.layers(withSpans, spans), plain.extra...)
	got = append(got,
		metric{Name: "go.gc_cycles_per_op", Value: ratio(plain.gcCycles, float64(plain.ops())), Unit: "count", N: plain.ops()},
		metric{Name: "go.gc_cpu_frac", Value: plain.gcCPUFrac, Unit: "ratio"},
		metric{Name: "trace.overhead_x", Value: ratio(median(withSpans.opSecs), median(plain.opSecs)), Unit: "x", N: withSpans.ops()},
	)
	res.metrics = complete(got)
	res.selfTimes = selfTimes(spans)
	if err := writeTrace(traceFile, w.name, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// complete orders the measured per-layer metrics as declared and adds
// a 0 for each layer the workload does not exercise.
func complete(got []metric) []metric {
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		byName[m.Name] = m
	}
	out := make([]metric, len(perLayer))
	for i, d := range perLayer {
		m, ok := byName[d.name]
		if !ok {
			m = metric{Name: d.name, Unit: d.unit}
		}
		out[i] = m
	}
	return out
}

func writeTrace(path, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := writeChrome(bw, workload, spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jsonMetric and jsonResult are the last line a single-workload run
// prints.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable table, then the JSON line with the
// declared metrics.
func report(out io.Writer, w workload, cfg config, traced bool, r *result) error {
	fmt.Fprintf(out, "workload %s  seed %d  nproc %d  %s\n", w.name, cfg.seed, cfg.nproc, runtime.Version())
	for _, m := range r.metrics {
		fmt.Fprintf(out, "  %-30s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, samples(m))
	}
	if traced {
		fmt.Fprintf(out, "  self time by span (trace overhead %.3gx)\n", find(r.metrics, "trace.overhead_x").Value)
		fmt.Fprintf(out, "    %-26s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
		for _, s := range r.selfTimes {
			fmt.Fprintf(out, "    %-26s %7d %12.1f %12.1f\n", s.name, s.count, ms(s.total), ms(s.self))
		}
	}
	if r.raw != nil {
		raw, err := json.Marshal(r.raw)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  samples %s\n", raw)
	}
	for i, err := range r.errs {
		if i == 5 {
			fmt.Fprintf(out, "  ... %d more failures\n", len(r.errs)-i)
			break
		}
		fmt.Fprintf(out, "  FAILED: %v\n", err)
	}
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	js := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	for _, d := range decls {
		v := find(r.metrics, d.name).Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		js.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(js)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func find(ms []metric, name string) metric {
	for _, m := range ms {
		if m.Name == name {
			return m
		}
	}
	return metric{Name: name}
}

// samples says how many samples stand behind a metric, and flags a tail
// percentile with too few of them.
func samples(m metric) string {
	switch {
	case m.N == 0:
		return ""
	case !reportable(m.N, m.Q):
		return fmt.Sprintf("(n=%d, too few for this percentile)", m.N)
	}
	return fmt.Sprintf("(n=%d)", m.N)
}

// runAll runs every workload in a child process of its own, one after
// another, and reports whether all of them succeeded.
func runAll(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"--workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s (%v)", w.name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %s", strings.Join(failed, ", "))
	}
	return nil
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: fig10-grid, modern-big, build or drsd-mix (empty: all, one child process each)")
		seed      = flag.Uint64("seed", 1, "input seed: modern-big's stream offset and drsd-mix's job sequence")
		seconds   = flag.Float64("seconds", 20, "how long each timed phase runs; at least one op always runs")
		traceOn   = flag.Int("trace", 0, "1: also run a traced phase and report per-layer metrics instead of end-to-end ones")
		traceFile = flag.String("trace-file", "", "Chrome trace output of a traced run (default .bench_build/trace-<workload>.json)")
		pinMode   = flag.Bool("pin", false, "print the pinned outputs of the full-scale workloads as JSON and exit")
	)
	flag.Parse()
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	var pinned pins
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		fatal(2, fmt.Errorf("pinned.json: %w", err))
	}
	cfg := fullScale(nproc, *seed, ".bench_build", &pinned)
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatal(2, err)
	}
	if *pinMode {
		cfg.pins = nil
		if err := writePins(os.Stdout, cfg); err != nil {
			fatal(1, err)
		}
		return
	}
	if *name == "" {
		err := runAll([]string{"--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*traceOn)})
		if err != nil {
			fatal(1, err)
		}
		return
	}
	w, ok := lookup(*name)
	if !ok {
		fatal(2, fmt.Errorf("unknown workload %q", *name))
	}
	if *traceOn != 0 && *traceOn != 1 {
		fatal(2, fmt.Errorf("--trace must be 0 or 1, not %d", *traceOn))
	}
	if *traceFile == "" {
		*traceFile = filepath.Join(cfg.work, "trace-"+w.name+".json")
	}
	r, err := runWorkload(w, cfg, *seconds, *traceOn == 1, *traceFile)
	if err != nil {
		fatal(1, err)
	}
	if err := report(os.Stdout, w, cfg, *traceOn == 1, r); err != nil {
		fatal(1, err)
	}
	if r.failed > 0 {
		os.Exit(1)
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(code)
}
