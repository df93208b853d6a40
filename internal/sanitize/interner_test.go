package sanitize

import (
	"testing"

	"countryrank/internal/countries"
)

// TestInternerInvariants pins the dense-id contract the metric kernels
// depend on: ids are dense, assigned in first-appearance order, round-trip
// through ASNOf/IDOf, and PathIDs mirrors CleanPath hop for hop.
func TestInternerInvariants(t *testing.T) {
	w, col := smallWorld(t)
	ds := Run(col, fullConfig(w, col, 0.5))
	if ds.NumAS() == 0 {
		t.Fatal("interner saw no ASes")
	}
	if len(ds.ASNOf) != len(ds.IDOf) {
		t.Fatalf("ASNOf has %d entries, IDOf has %d", len(ds.ASNOf), len(ds.IDOf))
	}
	for id, a := range ds.ASNOf {
		if got := ds.IDOf[a]; got != int32(id) {
			t.Fatalf("IDOf[%v] = %d, want %d", a, got, id)
		}
	}
	if len(ds.PathIDs) != len(ds.CleanPath) {
		t.Fatalf("PathIDs has %d paths, CleanPath has %d", len(ds.PathIDs), len(ds.CleanPath))
	}
	next := int32(0) // first-appearance order: ids never skip ahead
	for i, p := range ds.CleanPath {
		ids := ds.PathIDs[i]
		if len(ids) != len(p) {
			t.Fatalf("record %d: %d ids for %d hops", i, len(ids), len(p))
		}
		for j, hop := range p {
			id := ids[j]
			if id < 0 || int(id) >= ds.NumAS() {
				t.Fatalf("record %d hop %d: id %d out of range [0,%d)", i, j, id, ds.NumAS())
			}
			if ds.ASNOf[id] != hop {
				t.Fatalf("record %d hop %d: id %d maps to %v, want %v", i, j, id, ds.ASNOf[id], hop)
			}
			if id > next {
				t.Fatalf("record %d hop %d: id %d assigned out of first-appearance order (next expected %d)",
					i, j, id, next)
			}
			if id == next {
				next++
			}
		}
	}
	if int(next) != ds.NumAS() {
		t.Fatalf("walked ids up to %d, interner holds %d", next, ds.NumAS())
	}
	// RecordIDs must agree with Record.
	for i := 0; i < ds.Len(); i++ {
		vp1, pfx1, path := ds.Record(i)
		vp2, pfx2, ids := ds.RecordIDs(i)
		if vp1 != vp2 || pfx1 != pfx2 || len(path) != len(ids) {
			t.Fatalf("record %d: RecordIDs disagrees with Record", i)
		}
	}
}

// TestPathKeys pins the distinct-path key contract of both constructors:
// keys are dense and numbered in first-appearance order, a key stands for
// one clean path, and records with equal keys share one PathIDs slice.
func TestPathKeys(t *testing.T) {
	w, col := smallWorld(t)
	run := Run(col, fullConfig(w, col, 0.5))
	raw := NewDataset(col, make([]countries.Code, col.World.VPs.Len()), make([]countries.Code, len(col.Prefixes)))
	for name, ds := range map[string]*Dataset{"Run": run, "NewDataset": raw} {
		if len(ds.PathKey) != ds.Len() {
			t.Fatalf("%s: %d keys for %d records", name, len(ds.PathKey), ds.Len())
		}
		first := make([]int, 0, ds.NumPaths) // first record of each key
		shared := 0
		for i, k := range ds.PathKey {
			switch {
			case int(k) == len(first):
				first = append(first, i)
				continue
			case k < 0 || int(k) > len(first):
				t.Fatalf("%s record %d: key %d out of first-appearance order (next %d)", name, i, k, len(first))
			}
			f := first[k]
			if !ds.CleanPath[i].Equal(ds.CleanPath[f]) {
				t.Fatalf("%s records %d and %d share key %d but not a clean path", name, f, i, k)
			}
			a, b := ds.PathIDs[i], ds.PathIDs[f]
			if len(a) != len(b) || len(a) > 0 && &a[0] != &b[0] {
				t.Fatalf("%s records %d and %d share key %d but not a PathIDs slice", name, f, i, k)
			}
			shared++
		}
		if len(first) != ds.NumPaths {
			t.Fatalf("%s: saw %d keys, NumPaths is %d", name, len(first), ds.NumPaths)
		}
		if shared == 0 {
			t.Fatalf("%s: no two records share a path; the check proved nothing", name)
		}
	}
}
