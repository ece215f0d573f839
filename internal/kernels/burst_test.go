package kernels

import (
	"testing"

	"repro/internal/scene"
	"repro/internal/simt"
)

// Every burst configuration must still produce reference-correct hits
// when driven through the single-thread state machine.
func TestWhileIfBurstConfigsCorrect(t *testing.T) {
	data, bv := testData(t, scene.ConferenceRoom, 1000)
	rays := randomRays(40, 13)
	for _, burst := range []int{1, 2, 8, 64} {
		pool := &Pool{Rays: rays}
		k := NewWhileIf(data, pool, 32, WhileIfConfig{InnerBurst: burst, LeafBurst: burst})
		var res simt.StepResult
		slot := int32(0)
		for iter := 0; iter < 5_000_000; iter++ {
			k.Step(slot, WiRdctrl, &res)
			if res.Next == simt.BlockExit {
				break
			}
			block := res.Next
			for res.Next != WiRdctrl || block != WiRdctrl {
				k.Step(slot, block, &res)
				if res.Next == WiRdctrl {
					break
				}
				block = res.Next
			}
		}
		if pool.Remaining() != 0 {
			t.Fatalf("burst %d: pool not drained", burst)
		}
		for i, r := range rays {
			want := bv.Intersect(r, nil)
			if k.Hits[i].TriIndex != want.TriIndex {
				if k.Hits[i].TriIndex >= 0 && want.TriIndex >= 0 && absf(k.Hits[i].T-want.T) < 1e-4 {
					continue
				}
				t.Errorf("burst %d ray %d: got %d want %d", burst, i, k.Hits[i].TriIndex, want.TriIndex)
			}
		}
	}
}

// Larger bursts must reduce the number of rdctrl round trips.
func TestLargerBurstsFewerRdctrlRounds(t *testing.T) {
	data, _ := testData(t, scene.ConferenceRoom, 1000)
	rays := randomRays(60, 21)
	rounds := func(burst int) int {
		pool := &Pool{Rays: rays}
		k := NewWhileIf(data, pool, 32, WhileIfConfig{InnerBurst: burst, LeafBurst: burst})
		var res simt.StepResult
		n := 0
		slot := int32(0)
		for iter := 0; iter < 5_000_000; iter++ {
			k.Step(slot, WiRdctrl, &res)
			n++
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
		return n
	}
	small := rounds(1)
	big := rounds(16)
	if big >= small {
		t.Errorf("burst 16 used %d rounds, burst 1 used %d", big, small)
	}
}

func TestWhileIfConfigDefaults(t *testing.T) {
	c := WhileIfConfig{}.withDefaults()
	if c.InnerBurst != InnerBurst || c.LeafBurst != LeafBurst {
		t.Errorf("defaults = %+v", c)
	}
	c = WhileIfConfig{InnerBurst: 7, LeafBurst: 9}.withDefaults()
	if c.InnerBurst != 7 || c.LeafBurst != 9 {
		t.Errorf("explicit config changed: %+v", c)
	}
}
