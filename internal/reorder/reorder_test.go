package reorder

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/statcheck"
)

func TestRegistryLookupAndOrder(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(Registration{Name: "b", Summary: "second", New: func() Policy { return NewNoop() }})
	r.MustRegister(Registration{Name: "a", Summary: "first", New: func() Policy { return NewNoop() }})

	if got := r.Names(); len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("Names() = %v, want registration order [b a]", got)
	}
	reg, ok := r.Lookup("a")
	if !ok || reg.Summary != "first" {
		t.Fatalf("Lookup(a) = %+v, %v", reg, ok)
	}
	if _, ok := r.Lookup("zzz"); ok {
		t.Fatal("Lookup(zzz) should miss")
	}
}

func TestRegistryUnknownPolicyError(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(Registration{Name: "noop", Summary: "s", New: func() Policy { return NewNoop() }})

	_, err := r.New("serr")
	if err == nil {
		t.Fatal("New(serr) should fail")
	}
	var ue *UnknownPolicyError
	if !errors.As(err, &ue) {
		t.Fatalf("error %T is not *UnknownPolicyError", err)
	}
	if ue.Name != "serr" {
		t.Fatalf("UnknownPolicyError.Name = %q", ue.Name)
	}
	if len(ue.Known) != 1 || ue.Known[0] != "noop" {
		t.Fatalf("UnknownPolicyError.Known = %v", ue.Known)
	}
	if !strings.Contains(ue.Error(), "serr") || !strings.Contains(ue.Error(), "noop") {
		t.Fatalf("error message %q should name the unknown policy and the known set", ue.Error())
	}
}

func TestRegistryRejectsDuplicatesAndEmpty(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Registration{Name: "", New: func() Policy { return NewNoop() }}); err == nil {
		t.Fatal("empty name should be rejected")
	}
	if err := r.Register(Registration{Name: "x"}); err == nil {
		t.Fatal("nil constructor should be rejected")
	}
	if err := r.Register(Registration{Name: "x", New: func() Policy { return NewNoop() }}); err != nil {
		t.Fatalf("first registration failed: %v", err)
	}
	if err := r.Register(Registration{Name: "x", New: func() Policy { return NewNoop() }}); err == nil {
		t.Fatal("duplicate name should be rejected")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister on duplicate should panic")
		}
	}()
	r.MustRegister(Registration{Name: "x", New: func() Policy { return NewNoop() }})
}

func TestBaselinePolicies(t *testing.T) {
	for _, b := range []*Baseline{NewAilaBaseline(), NewNoop()} {
		if b.Name() == "" || b.Summary() == "" {
			t.Fatalf("baseline %+v missing name or summary", b)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("%s: Validate() = %v", b.Name(), err)
		}
		if b.Warps() != 0 {
			t.Fatalf("%s: Warps() = %d, want 0 (accept harness count)", b.Name(), b.Warps())
		}
		caps := b.Caps()
		if caps.Gate || caps.CtrlTag {
			t.Fatalf("%s: baseline must not claim engine capabilities", b.Name())
		}
	}
	if NewAilaBaseline().Name() == NewNoop().Name() {
		t.Fatal("the two baseline registrations must have distinct names")
	}
}

func TestStatsAddCovers(t *testing.T) {
	if err := statcheck.AddCovers(Stats{}); err != nil {
		t.Fatal(err)
	}
}
