// Package service is the deterministic simulation job service behind
// cmd/drsd: an HTTP/JSON API that accepts simulation and experiment
// requests, validates them into canonical job specs, content-addresses
// each spec so concurrent identical submissions singleflight into one
// execution, and runs them on a bounded worker pool over the
// process-wide workload cache.
//
// Determinism is the contract the whole layer is built around: a job's
// identity is the SHA-256 of its canonical spec encoding, its result
// artifact is a pure function of that spec (no timestamps, no queue or
// worker state), and the underlying engine is the epoch-barrier
// simulator — so the same spec returns byte-identical result bodies
// regardless of queue depth, worker count, or how many clients raced
// to submit it. See DESIGN.md §9.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/archconfig"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/scene"
	"repro/internal/trace"
)

// Job kinds the service accepts.
const (
	// KindRun is a single-device simulation: one scene, one
	// architecture, one bounce stream.
	KindRun = "run"
	// KindFig10 is the Figure 10/11 comparison grid (four architectures
	// per scene and bounce).
	KindFig10 = "fig10"
	// KindTable2 is the Table 2 swap-buffer sweep.
	KindTable2 = "table2"
)

// Spec bounds. Requests beyond them are rejected at admission — absurd
// render sizes or ray caps would otherwise tie a worker up for hours.
// The scale bounds are the experiments package's, shared with drsbench.
const (
	MaxDim          = experiments.MaxDim
	MaxSPP          = experiments.MaxSPP
	MaxSampleBudget = experiments.MaxSampleBudget
	MaxTris         = experiments.MaxTris
	MaxRayCap       = experiments.MaxRayCap
	// MaxTimeoutMS bounds the per-job deadline (one hour).
	MaxTimeoutMS = 3_600_000
	// MaxSpecBytes bounds the JSON encoding of a submitted spec.
	MaxSpecBytes = 1 << 16
)

// JobSpec is a validated, normalized job request. The JSON field order
// of this struct is the canonical encoding: Canonical marshals the
// normalized spec and ID hashes those bytes, so two requests that
// normalize to the same spec are one job.
//
// TimeoutMS is deliberately part of the content address: a deadline can
// change the observable outcome (a result vs a deadline error), and the
// contract is that one spec has exactly one outcome.
type JobSpec struct {
	// Kind selects the job type: run, fig10 or table2.
	Kind string `json:"kind"`
	// Scene names the benchmark (conference, fairy, sponza, plants).
	// Required for run jobs; empty on grid jobs means all four.
	Scene string `json:"scene"`
	// Arch names the architecture for run jobs: aila, drs, dmk, tbc.
	Arch string `json:"arch"`
	// Policy names the reordering policy for run jobs — any name in the
	// harness registry (see drsbench -list-policies). Optional: omission
	// falls back to Arch (itself defaulting to drs), and Normalize folds
	// the four legacy architecture names back into Arch, so every spec
	// expressible before this field existed keeps its exact canonical
	// encoding and content address. omitempty is what guarantees that:
	// an absent policy must not appear in the preimage. The fold rules
	// keep the encoding total — a normalized spec never carries a policy
	// value that duplicates Arch, so no two distinct jobs share bytes.
	//drslint:allow spec-hash -- omitempty is required for content-address backward compatibility; Normalize makes empty-vs-legacy-name collisions canonical, not ambiguous
	Policy string `json:"policy,omitempty"`
	// ArchConfig names the builtin device model the job runs on — any
	// name in the archconfig catalog (see drsbench -list-archs). Valid
	// on every kind. Optional: omission keeps the paper's gtx780 device,
	// and Normalize folds an explicit "gtx780" back to empty, so every
	// spec expressible before this field existed keeps its exact
	// canonical encoding and content address. omitempty guarantees an
	// absent model never appears in the preimage; the fold keeps the
	// encoding total, so no two distinct jobs share bytes.
	//drslint:allow spec-hash -- omitempty is required for content-address backward compatibility; Normalize folds the default model name so empty-vs-gtx780 is canonical, not ambiguous
	ArchConfig string `json:"arch_config,omitempty"`
	// Sched names the warp-scheduler policy — any name in the harness
	// scheduler registry (see drsbench -list-scheds). Valid on every
	// kind. Optional: omission keeps the device default (GTO), and
	// Normalize folds an explicit "gto" back to empty — the registry gto
	// is byte-identical to the historical enum scheduler, so the fold
	// collapses two spellings of the same simulation into one address.
	//drslint:allow spec-hash -- omitempty is required for content-address backward compatibility; Normalize folds the default scheduler name so empty-vs-gto is canonical, not ambiguous
	Sched string `json:"sched,omitempty"`
	// Bounce is the trace bounce a run job simulates (1-based).
	Bounce int `json:"bounce"`
	// Tris is the per-scene triangle budget (0 = paper full scale).
	Tris int `json:"tris"`
	// Width, Height, SPP shape the trace-generating render.
	Width  int `json:"width"`
	Height int `json:"height"`
	SPP    int `json:"spp"`
	// MaxRaysPerBounce caps each bounce stream (0 = no cap).
	MaxRaysPerBounce int `json:"max_rays_per_bounce"`
	// Bounces caps how many bounces grid jobs simulate.
	Bounces int `json:"bounces"`
	// SweepBounces is the per-bounce row count of table2 jobs.
	SweepBounces int `json:"sweep_bounces"`
	// CmpBounces is the per-bounce row count of fig10 jobs.
	CmpBounces int `json:"cmp_bounces"`
	// Parallelism is the cell-scheduler worker count inside the job
	// (0 = GOMAXPROCS). It never changes the result bytes.
	Parallelism int `json:"parallelism"`
	// Observe attaches the metrics registry and epoch series to run
	// jobs; the end-of-run snapshot lands in the result artifact and
	// the per-epoch barriers feed the SSE progress stream.
	Observe bool `json:"observe"`
	// TimeoutMS is the execution deadline in milliseconds, measured
	// from when a worker picks the job up (not submission, so queue
	// depth cannot change the outcome). 0 selects the server default.
	TimeoutMS int64 `json:"timeout_ms"`
}

// SpecError reports one invalid spec field; the HTTP layer maps it to
// a 400 with the field name.
type SpecError struct {
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("service: invalid spec: %s: %s", e.Field, e.Reason)
}

// AsSpecError unwraps err to a *SpecError if there is one.
func AsSpecError(err error) (*SpecError, bool) {
	var se *SpecError
	ok := errors.As(err, &se)
	return se, ok
}

// sceneNames lists the valid benchmark names in canonical order.
func sceneNames() []string {
	names := make([]string, len(scene.Benchmarks))
	for i, b := range scene.Benchmarks {
		names[i] = b.String()
	}
	return names
}

// ParseScene resolves a benchmark name.
func ParseScene(name string) (scene.Benchmark, error) {
	for _, b := range scene.Benchmarks {
		if b.String() == name {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown scene %q; valid: %v", name, sceneNames())
}

// Normalize applies the service defaults to unset fields, in place.
// Submissions are hashed after normalization, so an explicit
// `"tris": 4000` and an omitted tris are the same job.
func (s *JobSpec) Normalize() {
	if s.Tris == 0 {
		s.Tris = 4000
	}
	if s.Width == 0 {
		s.Width = 160
	}
	if s.Height == 0 {
		s.Height = 120
	}
	if s.SPP == 0 {
		s.SPP = 1
	}
	if s.Bounces == 0 {
		s.Bounces = trace.MaxBounces
	}
	if s.Kind == KindRun && s.Bounce == 0 {
		s.Bounce = 1
	}
	// Policy folding keeps content addresses stable: a policy spelled
	// with one of the four legacy architecture names collapses into the
	// arch field (the pre-policy encoding of the same job), and a policy
	// that merely repeats arch is dropped. Only genuinely new policy
	// names survive into the canonical encoding.
	if s.Kind == KindRun {
		if _, legacy := harness.LegacyArch(s.Policy); legacy && s.Arch == "" {
			s.Arch, s.Policy = s.Policy, ""
		}
		if s.Policy == s.Arch {
			s.Policy = ""
		}
		if s.Policy == "" && s.Arch == "" {
			s.Arch = harness.ArchDRS.String()
		}
	}
	// Device-model folding, same contract as the policy fold above: the
	// gtx780 model and the gto scheduler are exactly what every
	// pre-field spec already ran (the builtin gtx780 config reproduces
	// the hard-coded device byte for byte, and the registry gto is the
	// enum scheduler devirtualized), so naming either explicitly is the
	// same job as omitting it.
	if s.ArchConfig == archconfig.DefaultName {
		s.ArchConfig = ""
	}
	if s.Sched == "gto" {
		s.Sched = ""
	}
	if s.Kind == KindTable2 && s.SweepBounces == 0 {
		s.SweepBounces = 4
	}
	if s.Kind == KindFig10 && s.CmpBounces == 0 {
		s.CmpBounces = 3
	}
}

// Validate checks every field of a normalized spec and returns a typed
// *SpecError for the first rejection.
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case KindRun:
		if _, err := ParseScene(s.Scene); err != nil {
			return &SpecError{Field: "scene", Reason: err.Error()}
		}
		if s.Policy != "" {
			// Normalize already folded legacy names and duplicates away,
			// so a surviving policy means arch must be empty.
			if s.Arch != "" {
				return &SpecError{Field: "policy", Reason: fmt.Sprintf("policy %q conflicts with arch %q; set one of the two", s.Policy, s.Arch)}
			}
			if _, err := harness.Policies().New(s.Policy); err != nil {
				return &SpecError{Field: "policy", Reason: err.Error()}
			}
		} else if _, ok := harness.LegacyArch(s.Arch); !ok {
			return &SpecError{Field: "arch", Reason: fmt.Sprintf("unknown arch %q; valid: aila drs dmk tbc", s.Arch)}
		}
		if s.Bounce < 1 || s.Bounce > trace.MaxBounces {
			return &SpecError{Field: "bounce", Reason: fmt.Sprintf("bounce %d out of range [1,%d]", s.Bounce, trace.MaxBounces)}
		}
	case KindFig10, KindTable2:
		if s.Scene != "" {
			if _, err := ParseScene(s.Scene); err != nil {
				return &SpecError{Field: "scene", Reason: err.Error()}
			}
		}
		if s.Arch != "" {
			return &SpecError{Field: "arch", Reason: fmt.Sprintf("%s jobs compare fixed architectures; arch must be empty", s.Kind)}
		}
		if s.Policy != "" {
			return &SpecError{Field: "policy", Reason: fmt.Sprintf("%s jobs compare fixed architectures; policy must be empty", s.Kind)}
		}
		if s.Bounce != 0 {
			return &SpecError{Field: "bounce", Reason: fmt.Sprintf("%s jobs sweep bounces; bounce must be empty", s.Kind)}
		}
		if s.Observe {
			return &SpecError{Field: "observe", Reason: "observed mode applies to run jobs only"}
		}
	case "":
		return &SpecError{Field: "kind", Reason: "missing job kind; valid: run fig10 table2"}
	default:
		return &SpecError{Field: "kind", Reason: fmt.Sprintf("unknown kind %q; valid: run fig10 table2", s.Kind)}
	}
	// Both registries are the single judges of their names; the typed
	// errors carry the known-name lists into the 400 body.
	if s.ArchConfig != "" {
		if _, err := archconfig.Builtin(s.ArchConfig); err != nil {
			return &SpecError{Field: "arch_config", Reason: err.Error()}
		}
	}
	if s.Sched != "" {
		if _, err := harness.Schedulers().New(s.Sched); err != nil {
			return &SpecError{Field: "sched", Reason: err.Error()}
		}
	}
	switch {
	case s.Tris < 0 || s.Tris > MaxTris:
		return &SpecError{Field: "tris", Reason: fmt.Sprintf("triangle budget %d out of range [0,%d]", s.Tris, MaxTris)}
	case s.Width < 1 || s.Width > MaxDim:
		return &SpecError{Field: "width", Reason: fmt.Sprintf("width %d out of range [1,%d]", s.Width, MaxDim)}
	case s.Height < 1 || s.Height > MaxDim:
		return &SpecError{Field: "height", Reason: fmt.Sprintf("height %d out of range [1,%d]", s.Height, MaxDim)}
	case s.SPP < 1 || s.SPP > MaxSPP:
		return &SpecError{Field: "spp", Reason: fmt.Sprintf("spp %d out of range [1,%d]", s.SPP, MaxSPP)}
	case s.Width*s.Height*s.SPP > MaxSampleBudget:
		return &SpecError{Field: "spp", Reason: fmt.Sprintf("render budget %dx%dx%d exceeds %d samples", s.Width, s.Height, s.SPP, MaxSampleBudget)}
	case s.MaxRaysPerBounce < 0 || s.MaxRaysPerBounce > MaxRayCap:
		return &SpecError{Field: "max_rays_per_bounce", Reason: fmt.Sprintf("ray cap %d out of range [0,%d]", s.MaxRaysPerBounce, MaxRayCap)}
	case s.Bounces < 1 || s.Bounces > trace.MaxBounces:
		return &SpecError{Field: "bounces", Reason: fmt.Sprintf("bounce count %d out of range [1,%d]", s.Bounces, trace.MaxBounces)}
	case s.SweepBounces < 0 || s.SweepBounces > trace.MaxBounces:
		return &SpecError{Field: "sweep_bounces", Reason: fmt.Sprintf("sweep bounce count %d out of range [0,%d]", s.SweepBounces, trace.MaxBounces)}
	case s.CmpBounces < 0 || s.CmpBounces > trace.MaxBounces:
		return &SpecError{Field: "cmp_bounces", Reason: fmt.Sprintf("comparison bounce count %d out of range [0,%d]", s.CmpBounces, trace.MaxBounces)}
	case s.Parallelism < 0 || s.Parallelism > harness.MaxParallelism:
		return &SpecError{Field: "parallelism", Reason: fmt.Sprintf("worker count %d out of range [0,%d]", s.Parallelism, harness.MaxParallelism)}
	case s.TimeoutMS < 0 || s.TimeoutMS > MaxTimeoutMS:
		return &SpecError{Field: "timeout_ms", Reason: fmt.Sprintf("timeout %dms out of range [0,%d]", s.TimeoutMS, MaxTimeoutMS)}
	}
	return nil
}

// PolicyName returns the reordering policy a normalized run spec
// selects: the policy field when set, otherwise the legacy arch
// spelling (both route through the same harness registry).
func (s *JobSpec) PolicyName() string {
	if s.Policy != "" {
		return s.Policy
	}
	return s.Arch
}

// Canonical returns the canonical encoding of a normalized spec: the
// fixed-field-order JSON this struct marshals to. Equal specs encode to
// equal bytes; the encoding is the job's content address preimage.
func (s *JobSpec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A JobSpec holds only ints, bools and strings; Marshal cannot
		// fail on it.
		panic(fmt.Sprintf("service: canonical encoding failed: %v", err))
	}
	return b
}

// ID returns the job's content address: the hex SHA-256 of the
// canonical encoding.
func (s *JobSpec) ID() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

// DecodeSpec parses, normalizes and validates a job spec from JSON.
// The decoder is strict where encoding/json is lenient: unknown fields,
// duplicate keys, payloads over MaxSpecBytes, trailing garbage and
// non-integer numbers are all typed errors, never panics — the fuzz
// test holds it to that.
func DecodeSpec(data []byte) (*JobSpec, error) {
	if len(data) > MaxSpecBytes {
		return nil, &SpecError{Field: "body", Reason: fmt.Sprintf("spec is %d bytes; limit %d", len(data), MaxSpecBytes)}
	}
	if err := checkDuplicateKeys(data); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, &SpecError{Field: "body", Reason: err.Error()}
	}
	// Reject trailing content after the spec object ("{}{}" or "{} x").
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, &SpecError{Field: "body", Reason: "trailing data after spec object"}
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// checkDuplicateKeys walks the JSON token stream and rejects objects
// that repeat a key. encoding/json silently keeps the last duplicate,
// which would let two textually different payloads normalize into the
// same job while a non-Go client saw different fields win.
func checkDuplicateKeys(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	type frame struct {
		object bool
		seen   map[string]bool
		isKey  bool
	}
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return &SpecError{Field: "body", Reason: err.Error()}
		}
		top := func() *frame {
			if len(stack) == 0 {
				return nil
			}
			return stack[len(stack)-1]
		}
		switch t := tok.(type) {
		case json.Delim:
			switch t {
			case '{':
				stack = append(stack, &frame{object: true, seen: make(map[string]bool), isKey: true})
			case '[':
				stack = append(stack, &frame{})
			case '}', ']':
				stack = stack[:len(stack)-1]
				if f := top(); f != nil && f.object {
					f.isKey = true
				}
			}
		case string:
			if f := top(); f != nil && f.object && f.isKey {
				if f.seen[t] {
					return &SpecError{Field: t, Reason: fmt.Sprintf("duplicate key %q", t)}
				}
				f.seen[t] = true
				f.isKey = false
			} else if f != nil && f.object {
				f.isKey = true
			}
		default:
			if f := top(); f != nil && f.object {
				f.isKey = true
			}
		}
	}
}
