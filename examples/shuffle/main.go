// Shuffle is a watchable walkthrough of the DRS machinery in the
// spirit of Figure 6: it runs a small DRS machine over an incoherent
// ray stream and periodically prints the ray state table — which rows
// are bound to warps, which states fill each row, and what the swap
// engine has done so far.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/memsys"
	"repro/internal/scene"
	"repro/internal/simt"
	"repro/internal/vec"
)

func main() {
	s := scene.Generate(scene.ConferenceRoom, 8000)
	bv, err := bvh.Build(s.Tris, bvh.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	data := kernels.NewSceneData(bv)

	// An incoherent stream of rays inside the room.
	rnd := rand.New(rand.NewSource(7))
	rays := make([]geom.Ray, 4000)
	for i := range rays {
		o := vec.New(rnd.Float32()*18+1, rnd.Float32()*5+0.3, rnd.Float32()*10+1)
		d := vec.New(rnd.Float32()*2-1, rnd.Float32()*2-1, rnd.Float32()*2-1).Norm()
		rays[i] = geom.NewRay(o, d)
	}

	// A small DRS machine (6 warps, 9 rows) so the table is readable.
	cfg := core.DefaultConfig()
	cfg.WarpsOverride = 6
	scfg := simt.DefaultConfig()
	scfg.NumSMX = 1
	scfg.MaxWarpsPerSMX = cfg.Warps()
	scfg.MaxCycles = 1 << 26

	pool := &kernels.Pool{Rays: rays}
	k := kernels.NewWhileIf(data, pool, (cfg.Rows()-2)*32)
	ctrl, err := core.NewControl(cfg, k)
	if err != nil {
		log.Fatal(err)
	}
	l2 := memsys.NewOrderedL2(scfg.Mem, 1)
	smx, err := simt.NewSMX(0, scfg, k, ctrl.Hooks(), l2)
	if err != nil {
		log.Fatal(err)
	}
	ctrl.Launch(smx)

	// Drive the machine in slices, printing the table between them.
	printed := 0
	for !doneAll(smx) {
		st := smx.Stats()
		if st.Cycles/2000 > int64(printed) {
			printed++
			printTable(smx, ctrl, k)
		}
		if err := stepSome(smx); err != nil {
			log.Fatal(err)
		}
	}
	printTable(smx, ctrl, k)
	st := smx.Stats()
	cs := ctrl.Stats()
	fmt.Printf("\ntraced %d rays in %d cycles: SIMD efficiency %.1f%%, %d batched swaps (mean %.1f cycles), %d warp remaps\n",
		len(rays), st.Cycles, st.SIMDEfficiency(32)*100,
		cs.SwapsCompleted, cs.MeanSwapCycles(), cs.Remaps)
}

// stepSome advances the SMX a bounded number of cycles.
func stepSome(smx *simt.SMX) error {
	return smx.RunFor(2000)
}

func doneAll(smx *simt.SMX) bool {
	return smx.LiveWarps() == 0
}

func printTable(smx *simt.SMX, ctrl *core.Control, k *kernels.WhileIf) {
	st := smx.Stats()
	fmt.Printf("\n== cycle %d  (eff %.1f%%, swaps %d, stalls %d) ==\n",
		st.Cycles, st.SIMDEfficiency(32)*100, ctrl.Stats().SwapsCompleted, st.CtrlStalls)
	glyph := map[kernels.State]byte{
		kernels.StateEmpty: '.',
		kernels.StateFetch: 'F',
		kernels.StateInner: 'I',
		kernels.StateLeaf:  'L',
	}
	rowOwner := make(map[int]int)
	for w := 0; w < smx.NumWarps(); w++ {
		if r := ctrl.WarpRow(w); r >= 0 {
			rowOwner[r] = w
		}
	}
	for r := 0; r < ctrl.RowCount(); r++ {
		var b strings.Builder
		for _, slot := range ctrl.RowSlots(r) {
			b.WriteByte(glyph[k.StateOf(slot)])
		}
		owner := "      "
		if w, ok := rowOwner[r]; ok {
			owner = fmt.Sprintf("warp %d", w)
		}
		fmt.Printf("row %2d  %s  %s\n", r, b.String(), owner)
	}
}
