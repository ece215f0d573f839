package simt

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
)

// refPickGTO is the greedy-then-oldest pick as a plain min-scan, the
// form pickGTO had before the age list: the scheduler's greedy warp if
// it is still issuable, else the issuable warp with the smallest
// (lastIssued, id).
func refPickGTO(s *SMX, sched int) int {
	if last := s.lastWarp[sched]; last >= 0 {
		if last%s.nsched == sched && s.issuable(last) {
			return last
		}
	}
	st := s.st
	best := -1
	var bestLast int64
	for w := sched; w < st.n; w += s.nsched {
		if !s.issuable(w) {
			continue
		}
		if best < 0 || st.lastIssued[w] < bestLast {
			best, bestLast = w, st.lastIssued[w]
		}
	}
	return best
}

// checkGTOOrder verifies every scheduler's age list: it holds exactly
// the scheduler's warps, linked both ways, in ascending
// (lastIssued, id) order.
func checkGTOOrder(t *testing.T, s *SMX) {
	t.Helper()
	for sched := range s.gto {
		g := &s.gto[sched]
		prev, count := int32(-1), 0
		for w := g.head; w >= 0; w = s.gtoNext[w] {
			if int(w)%s.nsched != sched {
				t.Fatalf("cycle %d: warp %d on scheduler %d's list", s.cycle, w, sched)
			}
			if s.gtoPrev[w] != prev {
				t.Fatalf("cycle %d: warp %d links back to %d, want %d", s.cycle, w, s.gtoPrev[w], prev)
			}
			if prev >= 0 {
				a, b := s.st.lastIssued[prev], s.st.lastIssued[w]
				if a > b || (a == b && prev > w) {
					t.Fatalf("cycle %d: scheduler %d lists warp %d (last issued %d) before warp %d (last issued %d)",
						s.cycle, sched, prev, a, w, b)
				}
			}
			prev = w
			count++
		}
		if g.tail != prev {
			t.Fatalf("cycle %d: scheduler %d tail %d, walk ends at %d", s.cycle, sched, g.tail, prev)
		}
		if want := (s.st.n - sched + s.nsched - 1) / s.nsched; count != want {
			t.Fatalf("cycle %d: scheduler %d lists %d warps, want %d", s.cycle, sched, count, want)
		}
	}
}

// TestPickGTOMatchesMinScan drives SMXs through random issue histories
// and checks every SchedView.PickGTO against refPickGTO. The gate
// stalls most entries, so a scheduler makes several failed tries per
// cycle; it also resumes retired or parked warps mid-cycle (a wakeGen
// bump), parks running ones and pushes their ready cycles. Some runs
// dual-dispatch. The policy sometimes calls PickGTO twice, or for
// another scheduler, and in some runs it discards the answer and
// issues a different warp.
func TestPickGTOMatchesMinScan(t *testing.T) {
	var picks, ties, resumes, discarded int
	var stalls int64
	for seed := int64(1); seed <= 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := smallConfig(1 + rng.Intn(24))
		cfg.SchedulersPerSMX = 1 + rng.Intn(4)
		cfg.DispatchPerScheduler = 1 + rng.Intn(2)
		discard := seed%3 == 0
		stallPct := 40 + rng.Intn(55)

		k := &testKernel{
			blocks: []BlockInfo{
				{Name: "gate", Insts: 1, Gated: true, Reconv: 1},
				{Name: "work", Insts: 1 + rng.Intn(3), MemInsts: rng.Intn(3) / 2},
			},
			step: func(slot int32, block int, res *StepResult) {
				if block == 0 {
					res.Next = 1
					return
				}
				res.Next = 0
				res.NMem = 1
				res.Mem[0] = MemAccess{Addr: uint64(slot%64) * 128, Bytes: 4, Space: memsys.Tex}
			},
		}
		slots := make([]int32, cfg.WarpSize)
		resume := func(v *Warp) {
			for l := range slots {
				slots[l] = int32(v.ID()*cfg.WarpSize + l)
			}
			v.Resume(slots, 0)
		}
		hooks := Hooks{
			Gate: func(s *SMX, warp int, now int64) GateResult {
				if o := rng.Intn(s.NumWarps()); rng.Intn(100) < 20 {
					if v := s.Warp(o); v.Done() || v.Parked() {
						resume(v)
						resumes++
					} else if o != warp && rng.Intn(2) == 0 {
						v.Park()
					} else {
						v.AddStall(now, rng.Intn(6))
					}
				}
				switch r := rng.Intn(100); {
				case r < stallPct:
					return GateStall
				case r < stallPct+5 && s.LiveWarps() > 1:
					return GateExit
				}
				return GateProceed
			},
			Tick: func(s *SMX, now int64) {
				checkGTOOrder(t, s)
				// Keep the run going: now and then bring back a retired
				// or parked warp between cycles too.
				if v := s.Warp(rng.Intn(s.NumWarps())); (v.Done() || v.Parked()) && rng.Intn(100) < 5 {
					resume(v)
				}
			},
		}
		cfg.SchedFactory = func(v SchedView) SchedProgram {
			check := func(sched int) int {
				got, want := v.PickGTO(sched), refPickGTO(v.s, sched)
				if got != want {
					t.Fatalf("seed %d cycle %d sched %d: PickGTO = %d, min-scan = %d", seed, v.Cycle(), sched, got, want)
				}
				picks++
				// Count picks decided by id among never-issued warps.
				if want >= 0 && v.LastIssued(want) == 0 {
					for x := want + v.NumSchedulers(); x < v.NumWarps(); x += v.NumSchedulers() {
						if v.Issuable(x) && v.LastIssued(x) == 0 {
							ties++
							break
						}
					}
				}
				return got
			}
			return SchedProgram{Pick: func(sched int) int {
				w := check(sched)
				switch r := rng.Intn(4); {
				case discard && r == 0:
					// Issue the youngest issuable warp instead.
					alt := -1
					for x := sched; x < v.NumWarps(); x += v.NumSchedulers() {
						if v.Issuable(x) {
							alt = x
						}
					}
					if alt != w {
						discarded++
					}
					return alt
				case r == 1:
					if again := check(sched); again != w {
						t.Fatalf("seed %d cycle %d sched %d: PickGTO changed from %d to %d with no state change",
							seed, v.Cycle(), sched, w, again)
					}
				case r == 2:
					// Ask about another scheduler, which may already have
					// issued this cycle.
					check((sched + 1) % v.NumSchedulers())
				}
				return w
			}}
		}
		s := newTestSMX(t, cfg, k, hooks)
		s.LaunchAll(0)
		if err := s.RunFor(3000); err != nil {
			t.Fatal(err)
		}
		stalls += s.Stats().CtrlStalls
	}
	// The mix must have exercised every case the resumable walk has to
	// get right.
	if picks < 100000 || ties < 500 || stalls < 30000 || resumes < 3000 || discarded < 1000 {
		t.Fatalf("weak mix: %d picks (%d id ties), %d gate stalls, %d mid-cycle resumes, %d discarded picks",
			picks, ties, stalls, resumes, discarded)
	}
}
