package kernels

import (
	"testing"

	"repro/internal/scene"
	"repro/internal/simt"
)

// The any-hit Aila kernel must agree with the reference occlusion query
// on whether each ray hits anything.
func TestAilaAnyHitMatchesReference(t *testing.T) {
	data, bv := testData(t, scene.ConferenceRoom, 1200)
	rays := randomRays(600, 17)
	pool := &Pool{Rays: rays}
	k := NewAila(data, pool, 4*32, AilaConfig{Speculative: true, AnyHit: true})
	runKernel(t, k, 4, nil)
	for i, r := range rays {
		want := bv.IntersectAny(r, nil)
		got := k.Hits[i].TriIndex >= 0
		if got != want {
			t.Fatalf("ray %d: occluded=%v, reference=%v", i, got, want)
		}
	}
}

// Any-hit queries must test strictly fewer triangles than closest-hit
// on average (they stop at the first hit).
func TestAnyHitDoesLessWork(t *testing.T) {
	data, _ := testData(t, scene.ConferenceRoom, 1500)
	rays := randomRays(1500, 19)
	run := func(anyHit bool) int64 {
		pool := &Pool{Rays: rays}
		k := NewAila(data, pool, 8*32, AilaConfig{Speculative: true, AnyHit: anyHit})
		st := runKernel(t, k, 8, nil)
		return st.WarpInstrs
	}
	closest := run(false)
	occl := run(true)
	if occl >= closest {
		t.Errorf("any-hit issued %d instrs, closest-hit %d — expected fewer", occl, closest)
	}
}

// The while-if kernel's any-hit mode must agree with the reference when
// driven through the single-thread state machine.
func TestWhileIfAnyHitMatchesReference(t *testing.T) {
	data, bv := testData(t, scene.CrytekSponza, 1200)
	rays := randomRays(60, 23)
	pool := &Pool{Rays: rays}
	k := NewWhileIf(data, pool, 32, WhileIfConfig{AnyHit: true})
	var res simt.StepResult
	slot := int32(0)
	for iter := 0; iter < 5_000_000; iter++ {
		k.Step(slot, WiRdctrl, &res)
		if res.Next == simt.BlockExit {
			break
		}
		block := res.Next
		for {
			k.Step(slot, block, &res)
			if res.Next == WiRdctrl {
				break
			}
			block = res.Next
		}
	}
	if pool.Remaining() != 0 {
		t.Fatalf("pool not drained")
	}
	for i, r := range rays {
		want := bv.IntersectAny(r, nil)
		got := k.Hits[i].TriIndex >= 0
		if got != want {
			t.Fatalf("ray %d: occluded=%v, reference=%v", i, got, want)
		}
	}
}
