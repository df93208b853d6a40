// Package hegemony implements the AS hegemony metric (§1.2, Figure 2): the
// likelihood that an AS lies on a path toward a set of prefixes. For each
// vantage point, every AS gets the address-weighted fraction of the VP's
// paths that contain it; the final score is the mean of the per-VP values
// after trimming the top and bottom 10%, which damps the bias of VPs that
// are topologically very near or very far from the AS.
package hegemony

import (
	"sort"
	"sync"

	"countryrank/internal/asn"
	"countryrank/internal/sanitize"
)

// DefaultTrim is the fraction trimmed from each end of the per-VP score
// distribution, following Fontugne et al.
const DefaultTrim = 0.10

// Scores holds hegemony values in [0, 1] per AS.
type Scores struct {
	Hegemony map[asn.ASN]float64
	// VPCount is the number of vantage points contributing to the view;
	// each AS's score averages over all of them (zeros included).
	VPCount int
}

// Value returns a's hegemony (0 when unseen).
func (s Scores) Value(a asn.ASN) float64 { return s.Hegemony[a] }

// scratch is the reusable flat working state of the dense kernel. All
// slices are indexed by the dataset's dense ids (or VP indexes) and sized
// lazily; the pool keeps them across calls so steady-state Compute does not
// allocate per-VP maps. Nothing in it escapes Compute.
//
// Pool invariant: vpCnt is all-zero, seen all-false, asW and counts all-zero
// between calls; every write is undone via the vpsUsed/touched/idsUsed dirty
// lists. That keeps each call O(records + touched entries) rather than
// O(total ASes + total VPs), which matters for stability trials over tiny
// VP subsets.
type scratch struct {
	vpCnt    []int32  // per VP: bucket size (doubles as scatter cursor)
	vpOff    []int32  // per VP: bucket offset into order (used VPs only)
	vpsUsed  []int32  // VPs with records, in first-appearance order
	order    []int32  // record positions grouped by VP, record order kept
	asW      []uint64 // per AS id: weight containing it, for the current VP
	seen     []bool   // per AS id: marker for the current VP
	touched  []int32  // AS ids touched by the current VP
	counts   []int32  // per AS id: contributing VPs (then scatter cursor)
	idsUsed  []int32  // AS ids scored by any VP this call
	offsets  []int32  // per AS id: start into vals (used ids only)
	pairIDs  []int32  // (id, value) pairs in VP-major order
	pairVals []float64
	vals     []float64 // per-AS value lists after counting-sort
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns s resized to n. A reallocation is zeroed by make; a resize
// within capacity exposes only entries the reset discipline already zeroed,
// so the pool invariant holds across either path.
func grow[T int32 | uint64 | float64 | bool](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Compute calculates hegemony over the given accepted-record positions of
// ds (nil means every record). trim is the per-side trim fraction; negative
// values select DefaultTrim, zero disables trimming (the ablation case).
//
// The kernel accumulates into flat dense-id slices drawn from a pool; its
// result is bit-identical to the retained map-based reference
// (computeMapRef), which the property tests enforce.
func Compute(ds *sanitize.Dataset, recs []int32, trim float64) Scores {
	if trim < 0 {
		trim = DefaultTrim
	}
	nAS := ds.NumAS()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	order := bucketByVP(ds, recs, sc)

	// Per-VP accumulation over the VP's bucket: asW[id] is the weight of
	// the VP's paths containing id. The per-AS value lists end up sorted
	// before summing, so visiting VPs in first-appearance order (not VP
	// index order) still reproduces the reference bit for bit.
	sc.asW = grow(sc.asW, nAS)
	sc.seen = grow(sc.seen, nAS)
	sc.counts = grow(sc.counts, nAS)
	sc.idsUsed = sc.idsUsed[:0]
	sc.pairIDs = sc.pairIDs[:0]
	sc.pairVals = sc.pairVals[:0]

	vpCount := 0
	for _, v := range sc.vpsUsed {
		bucket := order[sc.vpOff[v]:][:sc.vpCnt[v]]
		sc.touched = sc.touched[:0]
		var total uint64
		for _, i := range bucket {
			_, pfxIdx, ids := ds.RecordIDs(int(i))
			w := ds.Weight[pfxIdx]
			total += w
			// Count each AS once per path even if prepending survived.
			var last int32 = -1
			for j, id := range ids {
				if j > 0 && id == last {
					continue
				}
				if !sc.seen[id] {
					sc.seen[id] = true
					sc.asW[id] = 0
					sc.touched = append(sc.touched, id)
				}
				sc.asW[id] += w
				last = id
			}
		}
		if total > 0 {
			vpCount++
			ft := float64(total)
			for _, id := range sc.touched {
				sc.pairIDs = append(sc.pairIDs, id)
				sc.pairVals = append(sc.pairVals, float64(sc.asW[id])/ft)
				if sc.counts[id] == 0 {
					sc.idsUsed = append(sc.idsUsed, id)
				}
				sc.counts[id]++
			}
		}
		for _, id := range sc.touched { // restore the pool invariant
			sc.seen[id] = false
			sc.asW[id] = 0
		}
		sc.vpCnt[v] = 0 // likewise
	}

	// Counting-sort the (id, value) pairs into per-AS value runs.
	sc.offsets = grow(sc.offsets, nAS)
	var off int32
	for _, id := range sc.idsUsed {
		sc.offsets[id] = off
		off += sc.counts[id]
		sc.counts[id] = 0 // becomes the scatter cursor
	}
	sc.vals = grow(sc.vals, len(sc.pairVals))
	for k, id := range sc.pairIDs {
		sc.vals[sc.offsets[id]+sc.counts[id]] = sc.pairVals[k]
		sc.counts[id]++
	}

	s := Scores{Hegemony: make(map[asn.ASN]float64, len(sc.idsUsed)), VPCount: vpCount}
	for _, id := range sc.idsUsed {
		vs := sc.vals[sc.offsets[id]:][:sc.counts[id]]
		sort.Float64s(vs)
		s.Hegemony[ds.ASNOf[id]] = trimmedMeanSorted(vs, vpCount, trim)
		sc.counts[id] = 0 // restore the pool invariant
	}
	return s
}

// bucketByVP groups the requested record positions by VP, preserving record
// order inside each bucket, using sc's reusable slices. It returns the
// grouped positions; sc.vpsUsed lists the non-empty VPs in first-appearance
// order and sc.vpOff/vpCnt describe each one's run. Only touched vpCnt
// entries are ever written, keeping the call O(records).
func bucketByVP(ds *sanitize.Dataset, recs []int32, sc *scratch) []int32 {
	nVP := len(ds.VPCountry)
	sc.vpCnt = grow(sc.vpCnt, nVP)
	sc.vpsUsed = sc.vpsUsed[:0]
	n := len(recs)
	if recs == nil {
		n = ds.Len()
	}
	each(ds, recs, func(i int) {
		vpIdx, _, _ := ds.RecordIDs(i)
		if sc.vpCnt[vpIdx] == 0 {
			sc.vpsUsed = append(sc.vpsUsed, vpIdx)
		}
		sc.vpCnt[vpIdx]++
	})
	sc.vpOff = grow(sc.vpOff, nVP)
	var off int32
	for _, v := range sc.vpsUsed {
		sc.vpOff[v] = off
		off += sc.vpCnt[v]
		sc.vpCnt[v] = 0 // becomes the scatter cursor
	}
	sc.order = grow(sc.order, n)
	each(ds, recs, func(i int) {
		vpIdx, _, _ := ds.RecordIDs(i)
		sc.order[sc.vpOff[vpIdx]+sc.vpCnt[vpIdx]] = int32(i)
		sc.vpCnt[vpIdx]++
	})
	return sc.order
}

// each visits the requested accepted-record positions, or all of them when
// recs is nil.
func each(ds *sanitize.Dataset, recs []int32, f func(i int)) {
	if recs == nil {
		for i := 0; i < ds.Len(); i++ {
			f(i)
		}
		return
	}
	for _, i := range recs {
		f(int(i))
	}
}

// trimmedMeanSorted is trimmedMean over an already-sorted value list whose
// zero padding up to n entries stays implicit: the padded distribution is
// (n - len(vals)) zeros followed by vals. Summing in padded order keeps the
// float result bit-identical to trimmedMean (leading zeros add exactly
// nothing), without materializing the pad.
func trimmedMeanSorted(vals []float64, n int, trim float64) float64 {
	if n <= 0 {
		return 0
	}
	k := int(trim * float64(n))
	if k == 0 && trim > 0 && n >= 3 {
		// Figure 2's small-view convention, as in trimmedMean.
		k = 1
	}
	lo, hi := k, n-k
	if lo >= hi {
		lo, hi = 0, n
	}
	zeros := n - len(vals)
	start := lo - zeros
	if start < 0 {
		start = 0
	}
	end := hi - zeros
	if end < start {
		end = start // the kept window is all implicit zeros
	}
	var sum float64
	for _, v := range vals[start:end] {
		sum += v
	}
	return sum / float64(hi-lo)
}
