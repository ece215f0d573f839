package harness

import (
	"bytes"
	"testing"

	"repro/internal/scene"
	"repro/internal/trace"
)

// Hits must be identical regardless of how rays are partitioned across
// SMXs (no loss, duplication, or misindexing at partition boundaries).
func TestPartitioningPreservesHits(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.FairyForest, 1500)
	rays := traces.Bounce(2).Rays
	opt := smallOptions()

	opt.Simt.NumSMX = 1
	one, err := RunNamed("aila", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Simt.NumSMX = 5
	five, err := RunNamed("aila", rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rays {
		if one.Hits[i].TriIndex != five.Hits[i].TriIndex {
			t.Fatalf("ray %d: 1-SMX hit %d, 5-SMX hit %d", i, one.Hits[i].TriIndex, five.Hits[i].TriIndex)
		}
	}
}

// A trace stream written to the binary format and read back must
// simulate to identical results — the tracegen/drsbench file exchange.
func TestTraceFileRoundTripSimulatesIdentically(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.ConferenceRoom, 1200)
	stream := traces.Bounce(2)
	var buf bytes.Buffer
	if err := stream.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	opt := smallOptions()
	direct, err := RunNamed("aila", stream.Rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := RunNamed("aila", loaded.Rays, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if direct.GPU.Stats.WarpInstrs != fromFile.GPU.Stats.WarpInstrs {
		t.Errorf("instruction counts differ: %d vs %d",
			direct.GPU.Stats.WarpInstrs, fromFile.GPU.Stats.WarpInstrs)
	}
	for i := range direct.Hits {
		if direct.Hits[i].TriIndex != fromFile.Hits[i].TriIndex {
			t.Fatalf("ray %d hits differ", i)
		}
	}
}

// Simulations must be exactly deterministic at any SMX count: the
// epoch-barrier engine drains L2 requests in fixed (smxID, issue-order)
// order at each epoch boundary, so cache state — and therefore cycle
// counts — no longer depends on goroutine scheduling.
func TestSimulationDeterministic(t *testing.T) {
	data, traces, _ := testWorkload(t, scene.CrytekSponza, 1500)
	rays := traces.Bounce(2).Rays
	opt := smallOptions()

	opt.Simt.NumSMX = 1
	var one *Result
	for i := 0; i < 3; i++ {
		res, err := RunNamed("drs", rays, data, opt)
		if err != nil {
			t.Fatal(err)
		}
		if one == nil {
			one = res
			continue
		}
		if res.GPU.Stats.Cycles != one.GPU.Stats.Cycles ||
			res.GPU.Stats.WarpInstrs != one.GPU.Stats.WarpInstrs ||
			res.DRS.SwapsCompleted != one.DRS.SwapsCompleted {
			t.Fatalf("single-SMX run %d differs: cycles %d vs %d, instrs %d vs %d, swaps %d vs %d",
				i, res.GPU.Stats.Cycles, one.GPU.Stats.Cycles,
				res.GPU.Stats.WarpInstrs, one.GPU.Stats.WarpInstrs,
				res.DRS.SwapsCompleted, one.DRS.SwapsCompleted)
		}
	}

	opt.Simt.NumSMX = 4
	var ref *Result
	for i := 0; i < 3; i++ {
		res, err := RunNamed("drs", rays, data, opt)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for j := range rays {
			if res.Hits[j].TriIndex != ref.Hits[j].TriIndex {
				t.Fatalf("multi-SMX run %d: hit %d differs", i, j)
			}
		}
		if res.GPU.Stats != ref.GPU.Stats {
			t.Errorf("multi-SMX run %d not bit-identical: cycles %d vs %d, instrs %d vs %d",
				i, res.GPU.Stats.Cycles, ref.GPU.Stats.Cycles,
				res.GPU.Stats.WarpInstrs, ref.GPU.Stats.WarpInstrs)
		}
	}
}

// All four architectures on all four scenes: hits must match the CPU
// reference (the heaviest correctness sweep in the suite).
func TestAllScenesAllArchsCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := smallOptions()
	for _, b := range scene.Benchmarks {
		data, traces, bv := testWorkload(t, b, 1200)
		rays := traces.Bounce(2).Rays
		if len(rays) > 2500 {
			rays = rays[:2500]
		}
		for _, arch := range []Arch{ArchAila, ArchDRS, ArchDMK, ArchTBC} {
			res, err := RunNamed(arch.String(), rays, data, opt)
			if err != nil {
				t.Fatalf("%v/%v: %v", b, arch, err)
			}
			verifyHits(t, b.String()+"/"+arch.String(), rays, res.Hits, bv)
		}
	}
}

// Occlusion (any-hit) mode: Aila and DRS must agree with the reference
// occlusion query for every ray.
func TestAnyHitParityAcrossArchitectures(t *testing.T) {
	data, traces, bv := testWorkload(t, scene.ConferenceRoom, 1200)
	rays := traces.Bounce(2).Rays
	if len(rays) > 2000 {
		rays = rays[:2000]
	}
	opt := smallOptions()
	opt.Aila.AnyHit = true
	opt.WhileIf.AnyHit = true
	for _, arch := range []Arch{ArchAila, ArchDRS} {
		res, err := RunNamed(arch.String(), rays, data, opt)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		for i, r := range rays {
			want := bv.IntersectAny(r, nil)
			got := res.Hits[i].TriIndex >= 0
			if got != want {
				t.Fatalf("%v ray %d: occluded=%v, want %v", arch, i, got, want)
			}
		}
	}
}
