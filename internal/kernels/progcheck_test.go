package kernels

import (
	"testing"

	"repro/internal/progcheck"
	"repro/internal/scene"
	"repro/internal/simt"
)

// TestSeedKernelsVerifyClean locks the repo's shipped kernel programs
// to a clean progcheck status: every variant passes static verification
// and a dynamic exploration over a real scene with no findings. A
// regression here means a block-table or Step edit broke a declared
// invariant (see the "Authoring kernels" section of DESIGN.md).
func TestSeedKernelsVerifyClean(t *testing.T) {
	data, _ := testData(t, scene.ConferenceRoom, 1500)
	const slots = 128
	rays := randomRays(slots, 7)

	drs := progcheck.Caps{Gate: true, CtrlTag: true}
	type variant struct {
		name  string
		caps  progcheck.Caps
		build func(pool *Pool) simt.Kernel
	}
	variants := []variant{
		{"aila", progcheck.Caps{}, func(p *Pool) simt.Kernel {
			return NewAila(data, p, slots, AilaConfig{Speculative: true})
		}},
		{"aila-nospec", progcheck.Caps{}, func(p *Pool) simt.Kernel {
			return NewAila(data, p, slots, AilaConfig{})
		}},
		{"aila-anyhit", progcheck.Caps{}, func(p *Pool) simt.Kernel {
			return NewAila(data, p, slots, AilaConfig{Speculative: true, AnyHit: true})
		}},
		{"whileif", drs, func(p *Pool) simt.Kernel {
			return NewWhileIf(data, p, slots, WhileIfConfig{})
		}},
		{"whileif-anyhit", drs, func(p *Pool) simt.Kernel {
			return NewWhileIf(data, p, slots, WhileIfConfig{AnyHit: true})
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			k := v.build(&Pool{Rays: rays})
			if fs := progcheck.Verify(v.name, k, v.caps); len(fs) != 0 {
				t.Errorf("static verification findings:\n%v", fs)
			}
			fs, cov := progcheck.Explore(v.name, k, progcheck.ExploreConfig{Slots: slots})
			if len(fs) != 0 {
				t.Errorf("exploration findings:\n%v", fs)
			}
			if cov.BlocksVisited < 2 || cov.EdgesObserved < 2 {
				t.Errorf("exploration barely moved: %+v", cov)
			}
		})
	}
}
