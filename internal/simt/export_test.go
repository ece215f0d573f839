package simt

import "fmt"

// View returns the scheduling view of s, so tests outside the package
// can read the state a scheduler sees whatever policy s runs.
func (s *SMX) View() SchedView { return SchedView{s: s} }

// Cycle returns the current device cycle.
func (v SchedView) Cycle() int64 { return v.s.cycle }

// Issuable reports whether warp w could issue this cycle: live, not
// parked, and not stalled on memory or a gate push-back.
func (v SchedView) Issuable(w int) bool { return v.s.issuable(w) }

// LastIssued returns the cycle warp w last issued an instruction, 0
// before its first issue: the age key of the scheduler's age list.
func (v SchedView) LastIssued(w int) int64 { return v.s.st.lastIssued[w] }

// GateWaiting reports whether warp w is marked as waiting at its gate:
// its last gate call stalled, and it has not been launched since.
func (s *SMX) GateWaiting(w int) bool { return s.st.gateWait[w] }

// CheckGTOOrder verifies every scheduler's age list: it holds exactly
// the scheduler's warps, linked both ways, in ascending
// (lastIssued, id) order.
func (s *SMX) CheckGTOOrder() error {
	for sched := range s.gto {
		g := &s.gto[sched]
		prev, count := int32(-1), 0
		for w := g.head; w >= 0; w = s.gtoNext[w] {
			if int(w)%s.nsched != sched {
				return fmt.Errorf("cycle %d: warp %d on scheduler %d's list", s.cycle, w, sched)
			}
			if s.gtoPrev[w] != prev {
				return fmt.Errorf("cycle %d: warp %d links back to %d, want %d", s.cycle, w, s.gtoPrev[w], prev)
			}
			if prev >= 0 {
				a, b := s.st.lastIssued[prev], s.st.lastIssued[w]
				if a > b || (a == b && prev > w) {
					return fmt.Errorf("cycle %d: scheduler %d lists warp %d (last issued %d) before warp %d (last issued %d)",
						s.cycle, sched, prev, a, w, b)
				}
			}
			prev = w
			count++
		}
		if g.tail != prev {
			return fmt.Errorf("cycle %d: scheduler %d tail %d, walk ends at %d", s.cycle, sched, g.tail, prev)
		}
		if want := (s.st.n - sched + s.nsched - 1) / s.nsched; count != want {
			return fmt.Errorf("cycle %d: scheduler %d lists %d warps, want %d", s.cycle, sched, count, want)
		}
	}
	return nil
}
