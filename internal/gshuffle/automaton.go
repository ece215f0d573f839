package gshuffle

import (
	"repro/internal/rng"
	"repro/internal/simt"
)

// Automaton is the demonstration workload: a divergent Monte Carlo
// task system in which every task walks a random number of steps
// through three phases (advance, interact, settle) with data-dependent
// durations — the kind of irregular state machine (transport codes,
// agent simulation, graph walks) the paper's future-work section has
// in mind. Without shuffling, warps diverge exactly like ray traversal
// warps do.
type Automaton struct {
	cfg     Config
	blocks  []simt.BlockInfo
	tasks   []autoTask
	left    int
	listen  func(slot int32, old, new int)
	retired int
}

type autoTask struct {
	phase  int // -1 = done
	budget [3]int
	rng    *rng.PCG32
}

// Automaton block ids: one gated dispatch plus one body per phase.
const (
	abDispatch = 0
	abAdvance  = 1
	abInteract = 2
	abSettle   = 3
)

// NewAutomaton creates the task table: (Rows-1)*WarpSize slots, of
// which the first Warps*WarpSize hold live tasks (the same task count a
// fixed-mapping baseline of the same warp count processes; the spare
// rows' slots start finished and serve as reorganization space).
func NewAutomaton(cfg Config, seed uint64) *Automaton {
	slots := (cfg.Rows - 1) * cfg.WarpSize
	live := cfg.Warps * cfg.WarpSize
	a := &Automaton{
		cfg: cfg,
		blocks: []simt.BlockInfo{
			abDispatch: {Name: "dispatch", Insts: 2, SrcOps: 1, Gated: true, Tag: simt.TagCtrl, Reconv: abDispatch},
			abAdvance:  {Name: "advance", Insts: 24, SrcOps: 3},
			abInteract: {Name: "interact", Insts: 40, SrcOps: 3},
			abSettle:   {Name: "settle", Insts: 12, SrcOps: 2},
		},
		tasks: make([]autoTask, slots),
	}
	for i := range a.tasks {
		r := rng.NewPCG32(seed, uint64(i)*2654435761+1)
		if i < live {
			a.tasks[i] = autoTask{
				phase:  0,
				budget: [3]int{1 + r.IntN(6), 1 + r.IntN(4), 1 + r.IntN(3)},
				rng:    r,
			}
			a.left++
		} else {
			a.tasks[i] = autoTask{phase: -1, rng: r}
		}
	}
	return a
}

// Blocks implements simt.Kernel.
func (a *Automaton) Blocks() []simt.BlockInfo { return a.blocks }

// Entry implements simt.Kernel.
func (a *Automaton) Entry() int { return abDispatch }

// Phases implements TaskKernel.
func (a *Automaton) Phases() int { return 3 }

// PhaseOf implements TaskKernel.
func (a *Automaton) PhaseOf(slot int32) int {
	if slot < 0 {
		return -1
	}
	return a.tasks[slot].phase
}

// WorkLeft implements TaskKernel.
func (a *Automaton) WorkLeft() bool { return a.left > 0 }

// SetListener implements TaskKernel.
func (a *Automaton) SetListener(fn func(slot int32, old, new int)) { a.listen = fn }

// setPhase transitions a task and notifies the control.
func (a *Automaton) setPhase(slot int32, phase int) {
	t := &a.tasks[slot]
	if t.phase == phase {
		return
	}
	old := t.phase
	t.phase = phase
	if phase < 0 {
		a.left--
		a.retired++
	}
	if a.listen != nil {
		a.listen(slot, old, phase)
	}
}

// Step implements simt.Kernel.
func (a *Automaton) Step(slot int32, block int, res *simt.StepResult) {
	t := &a.tasks[slot]
	res.NMem = 0
	switch block {
	case abDispatch:
		switch t.phase {
		case 0:
			res.Next = abAdvance
		case 1:
			res.Next = abInteract
		case 2:
			res.Next = abSettle
		default:
			res.Next = simt.BlockExit
		}
	case abAdvance, abInteract, abSettle:
		phase := block - 1
		t.budget[phase]--
		if t.budget[phase] > 0 {
			// Stay in this phase for another dispatch round.
			res.Next = abDispatch
			return
		}
		// Move to the next phase; from settle, either finish or loop
		// back to advance with a fresh (data-dependent) budget.
		switch phase {
		case 0:
			a.setPhase(slot, 1)
		case 1:
			a.setPhase(slot, 2)
		default:
			if t.rng.IntN(3) == 0 {
				// Finished: the lane retires at its next dispatch, so
				// the warp itself survives to pick up other rows.
				a.setPhase(slot, -1)
				res.Next = abDispatch
				return
			}
			t.budget = [3]int{1 + t.rng.IntN(6), 1 + t.rng.IntN(4), 1 + t.rng.IntN(3)}
			a.setPhase(slot, 0)
		}
		res.Next = abDispatch
	default:
		panic("gshuffle: bad block")
	}
}
