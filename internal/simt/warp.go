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

// newWarp builds a standalone warp backed by its own single-view store
// (tests exercise the warp-level operations without an SMX).
func newWarp(id, warpSize int) *Warp {
	return &Warp{st: newWarpState(id+1, warpSize, 0), id: id}
}

// Launch activates the warp at the given entry block with the lane ->
// slot mapping. Lanes with slot -1 are masked off.
//
//drslint:hotpath
func (w *Warp) Launch(entry int, slots []int32) {
	w.st.launch(w.id, entry, slots)
}

// ID returns the warp's index within its SMX.
func (w *Warp) ID() int { return w.id }

// Done reports whether all the warp's lanes have retired.
func (w *Warp) Done() bool { return w.st.phase[w.id] == phaseDone }

// Parked reports whether the warp is suspended at a barrier.
func (w *Warp) Parked() bool { return w.st.phase[w.id] == phaseParked }

// Block returns the warp's current block.
func (w *Warp) Block() int { return int(w.st.block[w.id]) }

// Slots returns the warp's lane -> slot mapping. The returned slice
// aliases the SMX's store; callers must not retain it across engine
// steps.
func (w *Warp) Slots() []int32 { return w.st.laneSlots(w.id) }

// ActiveMask returns the mask of the top reconvergence stack entry, or
// 0 if the warp is done.
func (w *Warp) ActiveMask() uint32 { return w.st.topMask(w.id) }

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

// retireLanes removes the given lanes from every stack entry, dropping
// entries that become empty. Returns the number of lanes retired.
func (w *Warp) retireLanes(mask uint32) int {
	return w.st.retireLanes(w.id, mask)
}

// popReconverged pops stack entries whose pc reached their
// reconvergence block.
func (w *Warp) popReconverged() { w.st.popReconverged(w.id) }
