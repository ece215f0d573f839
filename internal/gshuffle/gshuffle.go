// Package gshuffle implements the generalized dynamic state shuffling
// architecture the paper sketches as future work (§4.6): applying the
// DRS idea to divergent workloads other than ray tracing. The sketch
// lists three properties, all realized here:
//
//  1. the DATA of different warps is shuffled, not the threads — task
//     contexts move between register rows while warps stay intact;
//  2. no block-wide reconvergence stack is needed — divergence is
//     resolved by the state table, so warps never synchronize with each
//     other;
//  3. a warp is released for issue as soon as its SIMD utilization is
//     "improved to some extent" — the gate accepts a row once a single
//     phase reaches a configurable majority fraction, masking off the
//     minority lanes instead of waiting for perfect uniformity (the
//     relaxation that avoids TBC-style synchronization latencies).
//
// Tasks are state machines over a small set of phases; the shuffle
// control keeps rows phase-homogeneous enough for efficient execution,
// exactly as the DRS keeps ray rows state-homogeneous.
package gshuffle

import (
	"fmt"

	"repro/internal/simt"
)

// TaskKernel is a divergent workload expressed as per-slot state
// machines over `Phases` phases. The engine executes one gated dispatch
// block plus one body block per phase; after each body, a task reports
// its next phase (or done).
type TaskKernel interface {
	simt.Kernel
	// Phases returns the number of phases (body blocks).
	Phases() int
	// PhaseOf returns the slot's current phase, or -1 when the slot has
	// no work left.
	PhaseOf(slot int32) int
	// WorkLeft reports whether any slot anywhere still has work (used
	// for the exit decision).
	WorkLeft() bool
	// SetListener registers the control's phase-transition callback.
	SetListener(func(slot int32, old, new int))
}

// Config tunes the generalized shuffler.
type Config struct {
	// Rows is the number of task rows (warps + spare rows).
	Rows int
	// Warps is the number of resident warps (must be < Rows).
	Warps int
	// WarpSize is the row width.
	WarpSize int
	// ReleaseFraction is the §4.6 relaxation: a row is handed to a warp
	// once its best phase holds at least this fraction of its live
	// tasks (1.0 demands DRS-style uniformity). Values in (0, 1].
	ReleaseFraction float64
	// TaskRegisters is the number of live registers a task move
	// transfers (the analogue of the 17 ray registers).
	TaskRegisters int
	// SwapBuffers is the total swap buffer count, shared round-robin
	// across phases.
	SwapBuffers int
}

// DefaultConfig returns a small machine with the §4.6 relaxation at
// 75% majority release.
func DefaultConfig() Config {
	return Config{
		Rows:            12,
		Warps:           8,
		WarpSize:        32,
		ReleaseFraction: 0.75,
		TaskRegisters:   8,
		SwapBuffers:     6,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.WarpSize <= 0 || c.WarpSize > 32:
		return fmt.Errorf("gshuffle: warp size %d out of range", c.WarpSize)
	case c.Warps <= 0:
		return fmt.Errorf("gshuffle: need warps")
	case c.Rows <= c.Warps:
		return fmt.Errorf("gshuffle: need spare rows (%d rows for %d warps)", c.Rows, c.Warps)
	case c.ReleaseFraction <= 0 || c.ReleaseFraction > 1:
		return fmt.Errorf("gshuffle: release fraction %v out of (0,1]", c.ReleaseFraction)
	case c.TaskRegisters <= 0:
		return fmt.Errorf("gshuffle: task registers must be positive")
	case c.SwapBuffers <= 0:
		return fmt.Errorf("gshuffle: need swap buffers")
	}
	return nil
}

// Stats counts shuffler activity.
type Stats struct {
	Remaps         int64
	SwapsCompleted int64
	SwapCycleSum   int64
	PartialBinds   int64 // rows released below full uniformity (§4.6 point 3)
}

// Control is the generalized shuffling control: a phase table over task
// rows, warp renaming, and a per-phase collector swap engine.
type Control struct {
	cfg    Config
	kernel TaskKernel

	rows    [][]int32
	slotRow []int32
	counts  [][]int // per row, per phase (+1 column for "done")
	warpRow []int
	rowWarp []int
	rowBusy []int

	// one batched swap op in flight per phase collector
	ops []*swapOp

	stats   Stats
	scratch []int32

	// traceTick, when set, observes swap-engine activity (debug aid).
	traceTick func(phase int, op *swapOp, now int64, ok bool)
}

type swapOp struct {
	srcRow, dstRow     int
	srcCells, dstCells []int
	started            int64
	transfersLeft      int
	nextDone           int64
}

// NewControl organizes the kernel's slots into rows. The kernel must
// have (Rows-1)*WarpSize slots; one row starts empty for reorganizing.
func NewControl(cfg Config, kernel TaskKernel) (*Control, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Control{
		cfg:     cfg,
		kernel:  kernel,
		rows:    make([][]int32, cfg.Rows),
		warpRow: make([]int, cfg.Warps),
		rowWarp: make([]int, cfg.Rows),
		rowBusy: make([]int, cfg.Rows),
		counts:  make([][]int, cfg.Rows),
		ops:     make([]*swapOp, kernel.Phases()),
		scratch: make([]int32, cfg.WarpSize),
	}
	nSlots := (cfg.Rows - 1) * cfg.WarpSize
	c.slotRow = make([]int32, nSlots)
	slot := int32(0)
	for r := 0; r < cfg.Rows; r++ {
		c.rows[r] = make([]int32, cfg.WarpSize)
		c.counts[r] = make([]int, kernel.Phases()+1)
		for l := 0; l < cfg.WarpSize; l++ {
			if r < cfg.Rows-1 {
				c.rows[r][l] = slot
				c.slotRow[slot] = int32(r)
				c.bump(r, kernel.PhaseOf(slot), 1)
				slot++
			} else {
				c.rows[r][l] = -1
			}
		}
		c.rowWarp[r] = -1
	}
	for w := 0; w < cfg.Warps; w++ {
		c.warpRow[w] = w
		c.rowWarp[w] = w
	}
	kernel.SetListener(c.onPhaseChange)
	return c, nil
}

// bump adjusts the row's count for a phase (-1 = done column).
func (c *Control) bump(row, phase, delta int) {
	col := phase
	if col < 0 {
		col = len(c.counts[row]) - 1
	}
	c.counts[row][col] += delta
}

func (c *Control) onPhaseChange(slot int32, old, new int) {
	r := int(c.slotRow[slot])
	c.bump(r, old, -1)
	c.bump(r, new, 1)
}

// Hooks wires the control to an SMX.
func (c *Control) Hooks() simt.Hooks {
	return simt.Hooks{Gate: c.gate, Tick: c.tick}
}

// Launch starts the warps on their initial rows.
func (c *Control) Launch(s *simt.SMX) {
	for w := 0; w < c.cfg.Warps; w++ {
		s.LaunchMapped(w, c.maskedSlots(c.warpRow[w], c.bestPhase(c.warpRow[w])))
	}
}

// Stats returns a snapshot of the counters.
func (c *Control) Stats() Stats { return c.stats }

// bestPhase returns the phase with the most tasks in the row and its
// count.
func (c *Control) bestPhase(row int) int {
	best, bestN := -1, 0
	for p := 0; p < c.kernel.Phases(); p++ {
		if n := c.counts[row][p]; n > bestN {
			best, bestN = p, n
		}
	}
	return best
}

// live returns the number of unfinished tasks in the row.
func (c *Control) live(row int) int {
	n := 0
	for p := 0; p < c.kernel.Phases(); p++ {
		n += c.counts[row][p]
	}
	return n
}

// maskedSlots maps the row's slots, keeping only tasks in `phase` (the
// §4.6 partial release masks other lanes off).
func (c *Control) maskedSlots(row, phase int) []int32 {
	out := c.scratch
	for l, s := range c.rows[row] {
		if s >= 0 && c.kernel.PhaseOf(s) == phase {
			out[l] = s
		} else {
			out[l] = -1
		}
	}
	return out
}

// acceptable reports whether a row meets the release fraction for its
// best phase.
func (c *Control) acceptable(row int) (int, bool) {
	phase := c.bestPhase(row)
	if phase < 0 {
		return -1, false
	}
	live := c.live(row)
	need := int(c.cfg.ReleaseFraction * float64(live))
	if need < 1 {
		need = 1
	}
	return phase, c.counts[row][phase] >= need
}

// gate implements the dispatch semantics: map the warp to a row whose
// dominant phase meets the release fraction; otherwise stall.
func (c *Control) gate(s *simt.SMX, warp int, now int64) simt.GateResult {
	if row := c.warpRow[warp]; row >= 0 {
		if phase, ok := c.acceptable(row); ok && c.rowBusy[row] == 0 {
			if c.counts[row][phase] < c.live(row) {
				c.stats.PartialBinds++
			}
			s.Warp(warp).SetMapping(c.maskedSlots(row, phase), c.kernel.Entry())
			return simt.GateProceed
		}
		c.rowWarp[row] = -1
		c.warpRow[warp] = -1
	}
	// Fullest acceptable unbound row.
	best, bestN, bestPhase := -1, 0, -1
	for r := range c.rows {
		if c.rowWarp[r] >= 0 || c.rowBusy[r] > 0 {
			continue
		}
		if phase, ok := c.acceptable(r); ok {
			if n := c.counts[r][phase]; n > bestN {
				best, bestN, bestPhase = r, n, phase
			}
		}
	}
	if best >= 0 {
		c.warpRow[warp] = best
		c.rowWarp[best] = warp
		c.stats.Remaps++
		if bestN < c.live(best) {
			c.stats.PartialBinds++
		}
		s.Warp(warp).SetMapping(c.maskedSlots(best, bestPhase), c.kernel.Entry())
		return simt.GateProceed
	}
	if !c.kernel.WorkLeft() {
		return simt.GateExit
	}
	return simt.GateStall
}

// tick advances one batched swap per phase collector, exactly like the
// DRS swap engine but with one collector per phase.
func (c *Control) tick(s *simt.SMX, now int64) {
	for p := range c.ops {
		if op := c.ops[p]; op != nil {
			for op.transfersLeft > 0 && op.nextDone <= now {
				if !s.RF().TryShuffleTransfer(now, op.srcRow, op.dstRow, op.transfersLeft) {
					if c.traceTick != nil {
						c.traceTick(p, op, now, false)
					}
					break
				}
				op.transfersLeft--
				op.nextDone = now + 2
				if c.traceTick != nil {
					c.traceTick(p, op, now, true)
				}
			}
			if op.transfersLeft == 0 && op.nextDone <= now {
				c.completeOp(op, now)
				c.ops[p] = nil
			}
		}
		if c.ops[p] == nil {
			c.ops[p] = c.plan(p, now)
		}
	}
}

func (c *Control) completeOp(op *swapOp, now int64) {
	for i := range op.srcCells {
		a := c.rows[op.srcRow][op.srcCells[i]]
		b := c.rows[op.dstRow][op.dstCells[i]]
		c.rows[op.dstRow][op.dstCells[i]] = a
		c.rows[op.srcRow][op.srcCells[i]] = b
		if a >= 0 {
			c.bump(op.srcRow, c.kernel.PhaseOf(a), -1)
			c.bump(op.dstRow, c.kernel.PhaseOf(a), 1)
			c.slotRow[a] = int32(op.dstRow)
		}
		if b >= 0 {
			c.bump(op.dstRow, c.kernel.PhaseOf(b), -1)
			c.bump(op.srcRow, c.kernel.PhaseOf(b), 1)
			c.slotRow[b] = int32(op.srcRow)
		}
	}
	c.rowBusy[op.srcRow]--
	c.rowBusy[op.dstRow]--
	c.stats.SwapsCompleted++
	c.stats.SwapCycleSum += now - op.started
}

// plan finds the next batched move for phase p: extract p-tasks from
// the row where they are most in the minority into the row where they
// are most concentrated (with space or exchangeable cells).
func (c *Control) plan(p int, now int64) *swapOp {
	ws := c.cfg.WarpSize
	// Donor: unbound row where phase p is present but NOT dominant.
	donor := -1
	for r := range c.rows {
		if c.rowWarp[r] >= 0 || c.rowBusy[r] > 0 || c.counts[r][p] == 0 {
			continue
		}
		if c.bestPhase(r) != p {
			donor = r
			break
		}
	}
	if donor < 0 {
		return nil
	}
	// Collector: unbound row ≠ donor, preferring rows that already hold
	// phase p (grow them), then rows with no live tasks at all (start
	// fresh — never seed a new mixed row), then exchanges as a last
	// resort. The tiering prevents the planner from ping-ponging a
	// minority task between two mixed rows.
	grow, growBest := -1, 0
	fresh := -1
	exch := -1
	for r := range c.rows {
		if r == donor || c.rowWarp[r] >= 0 || c.rowBusy[r] > 0 {
			continue
		}
		n := c.counts[r][p]
		if n >= ws {
			continue
		}
		other := c.live(r) - n
		free := ws - c.live(r) // includes done tasks' cells
		switch {
		case n > 0 && (free > 0 || other > 0):
			if n > growBest {
				grow, growBest = r, n
			}
		case other == 0 && free > 0:
			if fresh < 0 {
				fresh = r
			}
		case other > 0:
			if exch < 0 {
				exch = r
			}
		}
	}
	coll := grow
	if coll < 0 {
		coll = fresh
	}
	if coll < 0 {
		coll = exch
	}
	if coll < 0 {
		return nil
	}
	op := &swapOp{srcRow: donor, dstRow: coll, started: now}
	for l, s := range c.rows[donor] {
		if s >= 0 && c.kernel.PhaseOf(s) == p {
			op.srcCells = append(op.srcCells, l)
			if len(op.srcCells) >= ws-1 {
				break
			}
		}
	}
	for _, pass := range [2]bool{false, true} {
		for l, s := range c.rows[coll] {
			if len(op.dstCells) >= len(op.srcCells) {
				break
			}
			dead := s < 0 || c.kernel.PhaseOf(s) < 0
			other := !dead && c.kernel.PhaseOf(s) != p
			if (!pass && dead) || (pass && other) {
				op.dstCells = append(op.dstCells, l)
			}
		}
	}
	if len(op.dstCells) == 0 {
		return nil
	}
	op.srcCells = op.srcCells[:len(op.dstCells)]
	op.transfersLeft = c.cfg.TaskRegisters
	c.rowBusy[donor]++
	c.rowBusy[coll]++
	return op
}
