package simt

// Warp is one resident warp of an SMX. Since the SoA refactor it is a
// thin view — an id plus a pointer to the SMX's struct-of-arrays store
// (warpstate.go) — so the accessor API the architecture hooks use
// (Slots, SetMapping, Park, Resume, ...) is unchanged while the engine
// itself scans flat arrays. Views are created once at NewSMX and are
// stable for the SMX's lifetime.
type Warp struct {
	st *warpState
	id int
}

// Done reports whether all the warp's lanes have retired.
func (w *Warp) Done() bool { return w.st.phase[w.id] == phaseDone }

// Slots returns the warp's lane -> slot mapping. The returned slice
// aliases the SMX's store; callers must not retain it across engine
// steps.
func (w *Warp) Slots() []int32 { return w.st.laneSlots(w.id) }

// StackDepth returns the current reconvergence stack depth.
func (w *Warp) StackDepth() int { return int(w.st.stackLen[w.id]) }

// AddStall delays the warp's next issue by the given number of cycles
// beyond `now` (architecture hooks use this for spawn-memory conflicts
// and shuffle costs).
//
//drslint:hotpath
func (w *Warp) AddStall(now int64, cycles int) {
	w.st.raise(w.id, now+int64(cycles))
}

// SetMapping replaces the warp's lane -> slot mapping and resets its
// reconvergence stack to a single full entry at block `pc`. Lanes with
// slot -1 are masked off. Architecture hooks (DRS renaming, DMK
// respawn, TBC compaction) use this to re-form the warp.
//
//drslint:hotpath
func (w *Warp) SetMapping(slots []int32, pc int) {
	w.st.launch(w.id, pc, slots)
}

// Park suspends the warp (TBC barrier). Resume with SetMapping.
// Parking a marked warp drops the turn caches (holdGen), which may
// count it.
//
//drslint:hotpath
func (w *Warp) Park() {
	if w.st.gateWait[w.id] {
		w.st.holdGen++
	}
	w.st.setPhase(w.id, phaseParked)
}

// Resume reactivates a parked (or retired) warp at block pc with a
// fresh mapping. Retired warps may be resurrected because compaction
// architectures hand pending thread contexts to whichever warps are
// free.
//
//drslint:hotpath
func (w *Warp) Resume(slots []int32, pc int) {
	if p := w.st.phase[w.id]; p != phaseParked && p != phaseDone {
		panic("simt: Resume on a warp that is still running")
	}
	w.st.launch(w.id, pc, slots)
}
