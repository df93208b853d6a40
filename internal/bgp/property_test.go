package bgp

import (
	"testing"
	"testing/quick"

	"countryrank/internal/asn"
)

// fromBytes builds a short path from fuzz bytes, with a small alphabet so
// duplicates are common.
func fromBytes(bs []byte) Path {
	p := make(Path, 0, len(bs))
	for _, b := range bs {
		p = append(p, asn.ASN(b%7)+1)
	}
	return p
}

func TestDedupAdjacentIdempotent(t *testing.T) {
	f := func(bs []byte) bool {
		p := fromBytes(bs)
		once := p.DedupAdjacent()
		twice := once.DedupAdjacent()
		return once.Equal(twice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDedupAdjacentPreservesEnds(t *testing.T) {
	f := func(bs []byte) bool {
		p := fromBytes(bs)
		if len(p) == 0 {
			return p.DedupAdjacent() == nil
		}
		d := p.DedupAdjacent()
		df, _ := d.First()
		pf, _ := p.First()
		do, _ := d.Origin()
		po, _ := p.Origin()
		return df == pf && do == po && len(d) <= len(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoopInvariantUnderPrepending(t *testing.T) {
	// Expanding any hop into a run of itself must not change loop-ness.
	f := func(bs []byte, at, times uint8) bool {
		p := fromBytes(bs)
		if len(p) == 0 {
			return true
		}
		i := int(at) % len(p)
		n := int(times%3) + 1
		var exp Path
		exp = append(exp, p[:i+1]...)
		for k := 0; k < n; k++ {
			exp = append(exp, p[i])
		}
		exp = append(exp, p[i+1:]...)
		return exp.HasNonAdjacentLoop() == p.HasNonAdjacentLoop()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// naiveDedup and naiveLoop are the copying, set-based forms of
// DedupAdjacent and HasNonAdjacentLoop: the specification the
// allocation-free versions are checked against.
func naiveDedup(p Path) Path {
	if len(p) == 0 {
		return nil
	}
	out := Path{p[0]}
	for _, a := range p[1:] {
		if a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	return out
}

func naiveLoop(p Path) bool {
	seen := map[asn.ASN]bool{}
	for i, a := range p {
		if i > 0 && a == p[i-1] {
			continue
		}
		if seen[a] {
			return true
		}
		seen[a] = true
	}
	return false
}

// TestPathHygieneMatchesNaive: on random paths and on the edge paths the
// sanitizer meets (empty, one hop, all prepended, "A B A"), the
// allocation-free DedupAdjacent and HasNonAdjacentLoop agree with their
// naive references, and DedupAdjacent hands back its input when there is
// nothing to collapse.
func TestPathHygieneMatchesNaive(t *testing.T) {
	check := func(p Path) bool {
		d := p.DedupAdjacent()
		if !d.Equal(naiveDedup(p)) || (len(p) == 0) != (d == nil) {
			return false
		}
		if len(d) == len(p) && len(p) > 0 && &d[0] != &p[0] {
			return false // no prepending: must not copy
		}
		return p.HasNonAdjacentLoop() == naiveLoop(p)
	}
	edges := []Path{nil, {}, {7}, {7, 7, 7}, {1, 2, 1}, {1, 1, 2, 2, 1}, {1, 2, 3, 3}, {4, 5, 6}}
	for _, p := range edges {
		if !check(p) {
			t.Errorf("%v: DedupAdjacent %v / loop %v, want %v / %v",
				p, p.DedupAdjacent(), p.HasNonAdjacentLoop(), naiveDedup(p), naiveLoop(p))
		}
	}
	if err := quick.Check(func(bs []byte) bool { return check(fromBytes(bs)) }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMarshalRoundTripQuick(t *testing.T) {
	f := func(bs []byte) bool {
		p := fromBytes(bs)
		if len(p) == 0 || len(p) > 200 {
			return true
		}
		a := AttrSet{Origin: OriginIGP, ASPath: SequencePath(p)}
		raw, err := a.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalAttrs(raw)
		return err == nil && got.PathOf().Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
