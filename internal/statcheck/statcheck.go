// Package statcheck verifies, by reflection, that a Stats struct's Add
// method covers every numeric field. The simulator folds per-SMX stats
// into device totals through these Add methods; a field missed by Add
// does not fail anything — the counter silently reads zero in every
// report. That bug class already happened once (the DRS RaysMoved
// counter was dropped by a hand-written merge in the harness), so each
// Stats-owning package pins its Add with AddCovers in its tests.
//
// statcheck covers the dynamic half of the completeness story (Add
// merges, exercised from tests). The static half — every `metrics:`
// tag reached by a RegisterStruct call, every content-addressed spec
// field reached by its Canonical encoder — lives in internal/srcgraph,
// the source lint, and runs under `drslint -mode graph`.
package statcheck

import (
	"fmt"
	"reflect"
)

// probeValue is what AddCovers plants in each source field. It must
// survive both additive merges (0 + 7 = 7) and max-style merges
// (max(0, 7) = 7), so any merge that reads the field at all propagates
// a nonzero value.
const probeValue = 7

// AddCovers checks that the Add method of zero's type covers every
// exported numeric field (recursively through nested structs and
// arrays): for each field it builds a source value with only that field
// set, merges it into a zero destination with Add, and requires the
// field to come out nonzero. It returns an error naming the first
// uncovered field, or nil if Add covers everything.
//
// zero must be a struct value (e.g. regfile.Stats{}) whose pointer type
// has a method with signature Add(T).
func AddCovers(zero any) error {
	typ := reflect.TypeOf(zero)
	if typ == nil || typ.Kind() != reflect.Struct {
		return fmt.Errorf("statcheck: want a struct value, got %T", zero)
	}
	m, ok := reflect.PointerTo(typ).MethodByName("Add")
	if !ok {
		return fmt.Errorf("statcheck: %s has no Add method on its pointer type", typ)
	}
	if m.Type.NumIn() != 2 || m.Type.In(1) != typ || m.Type.NumOut() != 0 {
		return fmt.Errorf("statcheck: %s.Add has signature %s, want func(*%s) Add(%s)",
			typ, m.Type, typ.Name(), typ.Name())
	}
	var paths []fieldPath
	collectNumericPaths(typ, nil, &paths)
	if len(paths) == 0 {
		return fmt.Errorf("statcheck: %s has no exported numeric fields", typ)
	}
	for _, p := range paths {
		src := reflect.New(typ).Elem()
		setProbe(fieldAt(src, p))
		dst := reflect.New(typ)
		dst.MethodByName("Add").Call([]reflect.Value{src})
		if fieldAt(dst.Elem(), p).IsZero() {
			return fmt.Errorf("statcheck: %s.Add drops field %s (source had %d, merged destination has zero)",
				typ, p, probeValue)
		}
	}
	return nil
}

// fieldPath addresses one numeric leaf: a sequence of struct field or
// array element indices.
type fieldPath []pathStep

type pathStep struct {
	name  string // field name, or "[i]" for array elements
	index int
}

func (p fieldPath) String() string {
	s := ""
	for _, st := range p {
		if s != "" && st.name[0] != '[' {
			s += "."
		}
		s += st.name
	}
	return s
}

// collectNumericPaths walks typ, appending a path for every exported
// numeric leaf. For arrays one representative element (index 0) is
// enough: Add merges arrays with a loop or not at all.
func collectNumericPaths(typ reflect.Type, prefix fieldPath, out *[]fieldPath) {
	switch typ.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		*out = append(*out, append(fieldPath{}, prefix...))
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			collectNumericPaths(f.Type, append(prefix, pathStep{name: f.Name, index: i}), out)
		}
	case reflect.Array:
		if typ.Len() > 0 {
			collectNumericPaths(typ.Elem(), append(prefix, pathStep{name: "[0]", index: 0}), out)
		}
	}
}

// fieldAt resolves a path inside v.
func fieldAt(v reflect.Value, p fieldPath) reflect.Value {
	for _, st := range p {
		if v.Kind() == reflect.Array {
			v = v.Index(st.index)
		} else {
			v = v.Field(st.index)
		}
	}
	return v
}

func setProbe(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		v.SetFloat(probeValue)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(probeValue)
	default:
		v.SetInt(probeValue)
	}
}
