// Package cone computes prefix-level customer cones (§1.1, Figure 1): for
// each sanitized AS path, the segment up to and including the first
// peer↔peer link (or up to the provider side of the first provider→customer
// link) is discarded, and every AS on the remaining provider→customer chain
// absorbs the path's prefix into its cone. An AS's cone score is the number
// of addresses of the distinct prefixes in its cone, so the metric captures
// how much of the considered address space pays the AS — directly or
// through customers of customers — for transit.
package cone

import (
	"slices"
	"sync"

	"countryrank/internal/asn"
	"countryrank/internal/relation"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

// Scores holds address-weighted cone sizes within one view's scope.
type Scores struct {
	// Addresses[a] is the total address weight of distinct prefixes in a's
	// customer cone, restricted to the view's prefixes.
	Addresses map[asn.ASN]uint64
	// ASes[a] is the number of distinct ASes in a's customer cone
	// (including itself), the unit CAIDA's AS Rank orders by.
	ASes map[asn.ASN]int
	// Total is the address weight of all distinct prefixes in the view:
	// the denominator for Share.
	Total uint64
}

// Share returns a's cone as a fraction of the view's address space.
func (s Scores) Share(a asn.ASN) float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Addresses[a]) / float64(s.Total)
}

// Shares returns every AS's fractional score.
func (s Scores) Shares() map[asn.ASN]float64 {
	out := make(map[asn.ASN]float64, len(s.Addresses))
	for a := range s.Addresses {
		out[a] = s.Share(a)
	}
	return out
}

// scratch holds the dense kernel's reusable pair buffers: cone membership
// is collected as packed (AS id, prefix) and (AS id, member id) pairs, then
// sorted and deduplicated, which replaces the per-AS set maps with two flat
// sorts. Nothing in it escapes Compute.
type scratch struct {
	pairPfx []uint64 // id<<32 | prefix index
	pairAS  []uint64 // id<<32 | member id
	pfxSeen []bool   // per prefix: already counted toward Total
	pfxUsed []int32  // prefixes marked in pfxSeen, for O(touched) reset
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Chains is the per-path chain resolution the cone and CTI kernels read,
// indexed by the dataset's PathKey. Both metrics follow a path's
// provider→customer links, so one pass resolves each link's relationship
// once and derives both from that one vector. It depends only on the
// dataset and the oracle, never on the view, so callers that compute over
// many views or VP subsets pay the relationship lookups once.
type Chains struct {
	// Starts[k] is where path k's retained provider→customer chain begins
	// (see chainStart). When a link below the start is not
	// provider→customer (possible with imperfect inferred relationships),
	// only the origin's self-membership survives and the start is
	// len(path)-1. An empty path has start -1: it contributes nothing.
	Starts []int32
	// Depths[k] is how many origin-side links of path k are
	// provider→customer: the transit portion CTI scores.
	Depths []int32
}

// unresolved marks a Chains entry no requested record carried.
const unresolved = -2

// ResolveChains resolves the chains of the distinct paths carried by the
// given accepted-record positions (nil means every record); entries of
// other paths stay unresolved. rels is asked about each (id, id) link once,
// so any Oracle works and a link shared by many paths costs one lookup.
func ResolveChains(ds *sanitize.Dataset, recs []int32, rels relation.Oracle) Chains {
	c := Chains{Starts: make([]int32, ds.NumPaths), Depths: make([]int32, ds.NumPaths)}
	for k := range c.Starts {
		c.Starts[k] = unresolved
	}
	lm := newLinkMemo(ds, rels)
	var links []topology.Rel
	each(ds, recs, func(i int) {
		k := ds.PathKey[i]
		if c.Starts[k] != unresolved {
			return
		}
		ids := ds.PathIDs[i]
		if len(ids) == 0 {
			c.Starts[k] = -1
			return
		}
		links = lm.resolve(links[:0], ids)
		n := len(links)
		var depth int
		for depth < n && links[n-1-depth] == topology.RelP2C {
			depth++
		}
		start := chainStart(links)
		if start < n-depth {
			start = n // a broken chain keeps only the origin
		}
		c.Starts[k], c.Depths[k] = int32(start), int32(depth)
	})
	return c
}

// linkMemo answers link relationships in dense-id space, asking the oracle
// once per ordered (id, id) pair.
type linkMemo struct {
	ds   *sanitize.Dataset
	rels relation.Oracle
	seen map[uint64]topology.Rel
}

func newLinkMemo(ds *sanitize.Dataset, rels relation.Oracle) *linkMemo {
	return &linkMemo{ds: ds, rels: rels, seen: map[uint64]topology.Rel{}}
}

// resolve appends to dst the relationship of each hop of ids to the next:
// dst[j] labels the link from ids[j] to ids[j+1].
func (lm *linkMemo) resolve(dst []topology.Rel, ids []int32) []topology.Rel {
	for j := 0; j+1 < len(ids); j++ {
		pair := uint64(uint32(ids[j]))<<32 | uint64(uint32(ids[j+1]))
		r, ok := lm.seen[pair]
		if !ok {
			r = lm.rels.Rel(lm.ds.ASNOf[ids[j]], lm.ds.ASNOf[ids[j+1]])
			lm.seen[pair] = r
		}
		dst = append(dst, r)
	}
	return dst
}

// Compute calculates cones over the given accepted-record positions of ds
// (pass nil for all records). rels supplies relationship labels — the
// ground-truth graph or an inferred table.
//
// The dense-id kernel is bit-identical to the map-based reference the
// property tests keep, computeMapRef.
func Compute(ds *sanitize.Dataset, recs []int32, rels relation.Oracle) Scores {
	return ComputeFrom(ds, recs, ResolveChains(ds, recs, rels).Starts)
}

// ComputeFrom is Compute over chain starts already resolved for every path
// the records carry (Chains.Starts).
func ComputeFrom(ds *sanitize.Dataset, recs []int32, starts []int32) Scores {
	return compute(ds, recs, starts, true)
}

// ComputeAddresses is ComputeFrom without the ASes (cone-membership count)
// map. Membership pairs are quadratic in chain length and their sort
// dominates the kernel, so rankings that only consume address shares —
// every CC* metric, including each stability trial — use this form.
func ComputeAddresses(ds *sanitize.Dataset, recs []int32, starts []int32) Scores {
	return compute(ds, recs, starts, false)
}

func compute(ds *sanitize.Dataset, recs []int32, starts []int32, wantASes bool) Scores {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.pairPfx = sc.pairPfx[:0]
	sc.pairAS = sc.pairAS[:0]
	// pfxSeen is all-false between calls (reset below via pfxUsed), so
	// sizing it costs O(touched prefixes), not O(total prefixes), per call.
	if cap(sc.pfxSeen) < len(ds.Weight) {
		sc.pfxSeen = make([]bool, len(ds.Weight))
	}
	sc.pfxSeen = sc.pfxSeen[:len(ds.Weight)]
	sc.pfxUsed = sc.pfxUsed[:0]
	defer func() {
		for _, p := range sc.pfxUsed {
			sc.pfxSeen[p] = false
		}
	}()

	s := Scores{}
	each(ds, recs, func(i int) {
		_, pfxIdx, ids := ds.RecordIDs(i)
		if !sc.pfxSeen[pfxIdx] {
			sc.pfxSeen[pfxIdx] = true
			sc.pfxUsed = append(sc.pfxUsed, pfxIdx)
			s.Total += ds.Weight[pfxIdx]
		}
		start := int(starts[ds.PathKey[i]])
		if start < 0 {
			return
		}
		for j := start; j < len(ids); j++ {
			hi := uint64(uint32(ids[j])) << 32
			sc.pairPfx = append(sc.pairPfx, hi|uint64(uint32(pfxIdx)))
			if !wantASes {
				continue
			}
			// An AS's cone contains itself and every AS observed
			// downstream of it on the retained chain.
			for k := j; k < len(ids); k++ {
				sc.pairAS = append(sc.pairAS, hi|uint64(uint32(ids[k])))
			}
		}
	})

	slices.Sort(sc.pairPfx)

	s.Addresses = make(map[asn.ASN]uint64, distinctHigh(sc.pairPfx))
	var sum uint64
	flushPairs(sc.pairPfx, func(pair uint64) {
		sum += ds.Weight[int32(uint32(pair))]
	}, func(id int32) {
		s.Addresses[ds.ASNOf[id]] = sum
		sum = 0
	})

	if wantASes {
		slices.Sort(sc.pairAS)
		s.ASes = make(map[asn.ASN]int, distinctHigh(sc.pairAS))
		members := 0
		flushPairs(sc.pairAS, func(pair uint64) {
			members++
		}, func(id int32) {
			s.ASes[ds.ASNOf[id]] = members
			members = 0
		})
	}
	return s
}

// flushPairs walks sorted packed pairs, calling visit once per distinct
// pair and flush(id) at the end of each distinct high-word (AS id) run.
func flushPairs(pairs []uint64, visit func(pair uint64), flush func(id int32)) {
	for k := 0; k < len(pairs); k++ {
		if k == 0 || pairs[k] != pairs[k-1] {
			visit(pairs[k])
		}
		if k+1 == len(pairs) || pairs[k+1]>>32 != pairs[k]>>32 {
			flush(int32(pairs[k] >> 32))
		}
	}
}

// distinctHigh counts distinct high words in sorted packed pairs.
func distinctHigh(pairs []uint64) int {
	n := 0
	for k := range pairs {
		if k == 0 || pairs[k]>>32 != pairs[k-1]>>32 {
			n++
		}
	}
	return n
}

// ComputeRecursive is the ablation variant §1.1 warns against: instead of
// only crediting an AS with prefixes observed downstream of it on actual
// paths, it collects every observed provider→customer link and takes the
// transitive closure, so a provider inherits its customers' entire cones
// even along never-observed combinations. Comparing it with Compute
// quantifies the cone inflation that motivates the observed-path rule.
func ComputeRecursive(ds *sanitize.Dataset, recs []int32, rels relation.Oracle) Scores {
	// Observed p2c links and per-AS directly-originated/observed prefixes.
	links := map[asn.ASN]map[asn.ASN]struct{}{}
	own := map[asn.ASN]map[int32]struct{}{}
	seenPrefix := map[int32]struct{}{}
	lm := newLinkMemo(ds, rels)
	var rs []topology.Rel

	each(ds, recs, func(i int) {
		_, pfxIdx, path := ds.Record(i)
		seenPrefix[pfxIdx] = struct{}{}
		if o, ok := path.Origin(); ok {
			set := own[o]
			if set == nil {
				set = map[int32]struct{}{}
				own[o] = set
			}
			set[pfxIdx] = struct{}{}
		}
		rs = lm.resolve(rs[:0], ds.PathIDs[i])
		for j := chainStart(rs); j < len(rs); j++ {
			if rs[j] != topology.RelP2C {
				break
			}
			m := links[path[j]]
			if m == nil {
				m = map[asn.ASN]struct{}{}
				links[path[j]] = m
			}
			m[path[j+1]] = struct{}{}
		}
	})

	// Transitive closure by DFS with memoized prefix sets.
	memo := map[asn.ASN]map[int32]struct{}{}
	var visit func(a asn.ASN, onPath map[asn.ASN]bool) map[int32]struct{}
	visit = func(a asn.ASN, onPath map[asn.ASN]bool) map[int32]struct{} {
		if got, ok := memo[a]; ok {
			return got
		}
		if onPath[a] {
			return nil // defensive: inferred relationship cycles
		}
		onPath[a] = true
		out := map[int32]struct{}{}
		for pfx := range own[a] {
			out[pfx] = struct{}{}
		}
		for c := range links[a] {
			for pfx := range visit(c, onPath) {
				out[pfx] = struct{}{}
			}
		}
		delete(onPath, a)
		memo[a] = out
		return out
	}

	s := Scores{Addresses: map[asn.ASN]uint64{}}
	for p := range seenPrefix {
		s.Total += ds.Weight[p]
	}
	all := map[asn.ASN]bool{}
	for a := range links {
		all[a] = true
	}
	for a := range own {
		all[a] = true
	}
	for a := range all {
		var sum uint64
		for p := range visit(a, map[asn.ASN]bool{}) {
			sum += ds.Weight[p]
		}
		s.Addresses[a] = sum
	}
	return s
}

// chainStart returns the hop index where a path's provider→customer chain
// begins, given its link relationships (links[j] labels hop j to hop j+1):
// after the first peer↔peer link, or at the provider side of the first
// provider→customer link. When the whole path climbs (or relations are
// unknown), only the origin, hop len(links), remains in scope.
func chainStart(links []topology.Rel) int {
	for i, r := range links {
		switch r {
		case topology.RelP2P:
			return i + 1
		case topology.RelP2C:
			return i
		}
	}
	return len(links)
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
