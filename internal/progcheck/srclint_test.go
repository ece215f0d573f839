package progcheck

import "testing"

func findCheck(fs []SrcFinding, c SrcCheck) *SrcFinding {
	for i := range fs {
		if fs[i].Check == c {
			return &fs[i]
		}
	}
	return nil
}

func lint(t *testing.T, src string) []SrcFinding {
	t.Helper()
	fs, err := LintSource("fixture.go", src)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestLintMapRangeLocalMake(t *testing.T) {
	fs := lint(t, `package p
func f() int {
	m := make(map[int]int)
	best := 0
	for k := range m {
		if k > best {
			best = k
		}
	}
	return best
}
`)
	if findCheck(fs, CheckMapRange) == nil {
		t.Fatalf("map range over local make(map) not flagged: %v", fs)
	}
}

func TestLintMapRangeStructField(t *testing.T) {
	fs := lint(t, `package p
type sched struct {
	queues map[int][]int
}
func (s *sched) pick() int {
	for t := range s.queues {
		return t
	}
	return -1
}
`)
	if findCheck(fs, CheckMapRange) == nil {
		t.Fatalf("map range over struct field not flagged: %v", fs)
	}
}

func TestLintMapRangeAllowed(t *testing.T) {
	fs := lint(t, `package p
func f() int {
	m := make(map[int]int)
	n := 0
	//drslint:allow map-range -- pure count, order-insensitive
	for range m {
		n++
	}
	return n
}
`)
	if f := findCheck(fs, CheckMapRange); f != nil {
		t.Fatalf("allowed map range still flagged: %v", f)
	}
}

func TestLintSliceRangeNotFlagged(t *testing.T) {
	fs := lint(t, `package p
func f(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
`)
	if len(fs) != 0 {
		t.Fatalf("slice range flagged: %v", fs)
	}
}

func TestLintWallClock(t *testing.T) {
	fs := lint(t, `package p
import "time"
func f() int64 {
	return time.Now().UnixNano()
}
`)
	if findCheck(fs, CheckWallClock) == nil {
		t.Fatalf("time.Now not flagged: %v", fs)
	}
}

func TestLintGlobalRand(t *testing.T) {
	fs := lint(t, `package p
import "math/rand"
func f() int {
	return rand.Intn(10)
}
`)
	if findCheck(fs, CheckGlobalRand) == nil {
		t.Fatalf("global rand.Intn not flagged: %v", fs)
	}
}

func TestLintSeededRandNotFlagged(t *testing.T) {
	fs := lint(t, `package p
import "math/rand"
func f() int {
	r := rand.New(rand.NewSource(42))
	return r.Intn(10)
}
`)
	if f := findCheck(fs, CheckGlobalRand); f != nil {
		t.Fatalf("seeded rand constructor flagged: %v", f)
	}
}

func TestLintGoroutineCapturedWrite(t *testing.T) {
	fs := lint(t, `package p
func f() int {
	total := 0
	done := make(chan struct{})
	go func() {
		total = 42
		close(done)
	}()
	<-done
	return total
}
`)
	if findCheck(fs, CheckGoCapturedWrite) == nil {
		t.Fatalf("goroutine captured write not flagged: %v", fs)
	}
}

func TestLintGoroutineIndexWriteNotFlagged(t *testing.T) {
	fs := lint(t, `package p
import "sync"
func f(n int) []int {
	out := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = i * i
		}(i)
	}
	wg.Wait()
	return out
}
`)
	if f := findCheck(fs, CheckGoCapturedWrite); f != nil {
		t.Fatalf("disjoint index write flagged: %v", f)
	}
}

func TestLintGoroutineLocalWriteNotFlagged(t *testing.T) {
	fs := lint(t, `package p
func f() {
	go func() {
		n := 0
		n++
		_ = n
	}()
}
`)
	if f := findCheck(fs, CheckGoCapturedWrite); f != nil {
		t.Fatalf("goroutine-local write flagged: %v", f)
	}
}

// TestLintRepoClean locks satellite (a): the shipped simulator sources
// carry no unsuppressed determinism findings.
func TestLintRepoClean(t *testing.T) {
	fs, err := LintDirs("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("internal/... has determinism findings:\n%v", fs)
	}
}

func TestLintHotpathMapMake(t *testing.T) {
	fs := lint(t, `package p

//drslint:hotpath

func resolve() {
	seen := make(map[int]uint32, 4)
	seen[1] = 2
	_ = seen
}
`)
	f := findCheck(fs, CheckHotPathAlloc)
	if f == nil {
		t.Fatalf("make(map) in hotpath file not flagged: %v", fs)
	}
	if f.Line != 6 {
		t.Errorf("flagged line %d, want 6", f.Line)
	}
}

func TestLintHotpathMapLiteral(t *testing.T) {
	fs := lint(t, `package p

//drslint:hotpath

func f() map[int]int { return map[int]int{1: 2} }
`)
	if findCheck(fs, CheckHotPathAlloc) == nil {
		t.Fatalf("map literal in hotpath file not flagged: %v", fs)
	}
}

func TestLintHotpathFreshSliceAppend(t *testing.T) {
	fs := lint(t, `package p

//drslint:hotpath

func f(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

func g(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}
`)
	var lines []int
	for _, f := range fs {
		if f.Check == CheckHotPathAlloc {
			lines = append(lines, f.Line)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("want 2 fresh-slice append findings (make'd and var-nil), got %v: %v", lines, fs)
	}
}

// The pooled idiom — reslice a struct field to length zero, append,
// store back — is exactly what hot code should do and must pass.
func TestLintHotpathPooledResliceNotFlagged(t *testing.T) {
	fs := lint(t, `package p

//drslint:hotpath

type warp struct {
	uniqBuf []int
	stack   []int
}

func (w *warp) resolve(targets []int) {
	uniq := w.uniqBuf[:0]
	for _, t := range targets {
		uniq = append(uniq, t)
	}
	w.uniqBuf = uniq
	w.stack = append(w.stack, len(uniq))
}
`)
	if f := findCheck(fs, CheckHotPathAlloc); f != nil {
		t.Fatalf("pooled reslice/field append flagged: %v", f)
	}
}

func TestLintHotpathUntaggedFileNotFlagged(t *testing.T) {
	fs := lint(t, `package p

func f() map[int]int {
	out := make([]int, 0, 4)
	out = append(out, 1)
	_ = out
	return make(map[int]int)
}
`)
	if f := findCheck(fs, CheckHotPathAlloc); f != nil {
		t.Fatalf("untagged file flagged: %v", f)
	}
}

func TestLintHotpathAllowed(t *testing.T) {
	fs := lint(t, `package p

//drslint:hotpath

func launch() {
	//drslint:allow hotpath-alloc -- runs once per kernel launch, not per cycle
	m := make(map[int]int)
	_ = m
}
`)
	if f := findCheck(fs, CheckHotPathAlloc); f != nil {
		t.Fatalf("allowed hotpath alloc still flagged: %v", f)
	}
}

// Constructor-style make([]T, n) without append growth is allocation
// but not churn-by-growth; the check targets maps and append growth.
func TestLintHotpathPlainMakeSliceNotFlagged(t *testing.T) {
	fs := lint(t, `package p

//drslint:hotpath

func launchAll(n int) []int32 {
	slots := make([]int32, n)
	for i := range slots {
		slots[i] = int32(i)
	}
	return slots
}
`)
	if f := findCheck(fs, CheckHotPathAlloc); f != nil {
		t.Fatalf("make([]T, n) without growth flagged: %v", f)
	}
}

// Directive-parsing edge cases.

func TestLintAllowMultipleChecksOneLine(t *testing.T) {
	// One directive naming two checks suppresses both on the next line.
	fs := lint(t, `package p
import "time"
func f() int64 {
	m := make(map[int]int)
	var t0 int64
	//drslint:allow map-range wallclock -- seed helper: order-insensitive, stamps a log only
	for range m { t0 = time.Now().UnixNano() }
	return t0
}
`)
	if f := findCheck(fs, CheckMapRange); f != nil {
		t.Errorf("map-range not suppressed by multi-check allow: %v", f)
	}
	if f := findCheck(fs, CheckWallClock); f != nil {
		t.Errorf("wallclock not suppressed by multi-check allow: %v", f)
	}
}

func TestLintAllowTrailingOnStatementLine(t *testing.T) {
	// The directive as a trailing comment on the flagged line itself.
	fs := lint(t, `package p
func f() int {
	m := make(map[int]int)
	n := 0
	for range m { n++ } //drslint:allow map-range -- pure count, order-insensitive
	return n
}
`)
	if f := findCheck(fs, CheckMapRange); f != nil {
		t.Errorf("trailing same-line allow not honored: %v", f)
	}
}

func TestLintAllowReasonWithParenthetical(t *testing.T) {
	// Free text after -- is ignored entirely, including further dashes.
	fs := lint(t, `package p
func f() int {
	m := make(map[int]int)
	n := 0
	//drslint:allow map-range -- order-insensitive (see DESIGN -- static analysis)
	for range m { n++ }
	return n
}
`)
	if f := findCheck(fs, CheckMapRange); f != nil {
		t.Errorf("allow with parenthetical reason not honored: %v", f)
	}
}

func TestLintAllowInBlockCommentInert(t *testing.T) {
	// The grammar is line comments only: a /* */ block mentioning the
	// directive must not suppress anything.
	fs := lint(t, `package p
func f() int {
	m := make(map[int]int)
	n := 0
	/* //drslint:allow map-range -- not a real directive */
	for range m { n++ }
	return n
}
`)
	if findCheck(fs, CheckMapRange) == nil {
		t.Fatalf("block-comment pseudo-directive suppressed the finding: %v", fs)
	}
}

func TestLintHotpathInBlockCommentInert(t *testing.T) {
	fs := lint(t, `package p
/* //drslint:hotpath */
func f() map[int]int { return make(map[int]int) }
`)
	if f := findCheck(fs, CheckHotPathAlloc); f != nil {
		t.Fatalf("block-comment hotpath tag enabled the check: %v", f)
	}
}

// Function-granular hotpath directives (doc comment) and the extended
// wall-clock surface.

func TestLintHotpathFunctionGranular(t *testing.T) {
	// A doc-comment directive marks only its function, not the file.
	fs := lint(t, `package p

// step is per-cycle.
//
//drslint:hotpath
func step() map[int]int { return make(map[int]int) }

func setup() map[int]int { return make(map[int]int) }
`)
	var lines []int
	for _, f := range fs {
		if f.Check == CheckHotPathAlloc {
			lines = append(lines, f.Line)
		}
	}
	if len(lines) != 1 || lines[0] != 6 {
		t.Fatalf("want exactly one hotpath-alloc finding at line 6 (step only), got lines %v: %v", lines, fs)
	}
}

func TestLintWallClockTimerSurface(t *testing.T) {
	fs := lint(t, `package p
import "time"
func f(d time.Duration) {
	_ = time.Since(time.Now())
	t := time.NewTimer(d)
	defer t.Stop()
	<-time.Tick(d)
}
`)
	var lines []int
	for _, f := range fs {
		if f.Check == CheckWallClock {
			lines = append(lines, f.Line)
		}
	}
	// time.Since, time.Now, time.NewTimer, time.Tick: 4 sites.
	if len(lines) != 4 {
		t.Fatalf("want 4 wallclock findings (Since, Now, NewTimer, Tick), got %v: %v", lines, fs)
	}
}
