// Package sanitize implements the path filtering pipeline of §3.1 and
// Table 1: before any metric is computed, every (VP, prefix, AS path)
// record is checked for day-to-day stability, unallocated ASNs, loops,
// path poisoning, and the geolocatability of both its vantage point and its
// prefix. Accepted paths are cleaned by removing IXP route-server ASNs and
// collapsing prepending.
package sanitize

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/countries"
	"countryrank/internal/geoloc"
	"countryrank/internal/netx"
	"countryrank/internal/obs"
	"countryrank/internal/routing"
)

// The Table-1 accounting, mirrored as monotonic counters so a scrape shows
// the same per-Reason drop profile Stats renders. Indexed by Reason.
var mByReason = [numReasons]*obs.Counter{
	Accepted:         obs.NewCounter("countryrank_sanitize_accepted_total", "records accepted by the sanitizer"),
	Unstable:         obs.NewCounter("countryrank_sanitize_dropped_unstable_total", "records dropped: prefix missing from >=1 daily RIB"),
	Unallocated:      obs.NewCounter("countryrank_sanitize_dropped_unallocated_total", "records dropped: path contains an unallocated ASN"),
	Loop:             obs.NewCounter("countryrank_sanitize_dropped_loop_total", "records dropped: non-adjacent duplicate ASNs in path"),
	Poisoned:         obs.NewCounter("countryrank_sanitize_dropped_poisoned_total", "records dropped: poisoned path signature"),
	VPNoLocation:     obs.NewCounter("countryrank_sanitize_dropped_vp_no_location_total", "records dropped: vantage point unlocatable"),
	PrefixNoLocation: obs.NewCounter("countryrank_sanitize_dropped_prefix_no_location_total", "records dropped: prefix geolocated to no or multiple countries"),
}

var (
	mRecords = obs.NewCounter("countryrank_sanitize_records_total",
		"records examined by the sanitizer")
	mRejected = obs.NewCounter("countryrank_sanitize_rejected_total",
		"records rejected by the sanitizer, all reasons")
	mRunSeconds = obs.NewHistogram("countryrank_sanitize_run_seconds",
		"duration of one sanitizer pass over a collection", nil)
)

// observe publishes one pass's accounting to the registry: a handful of
// bulk atomic adds after the filtering loop, nothing per record.
func (s Stats) observe(elapsed time.Duration) {
	mRecords.Add(int64(s.Total))
	mRejected.Add(int64(s.Rejected()))
	for r, c := range mByReason {
		c.Add(int64(s.Counts[r]))
	}
	mRunSeconds.Observe(elapsed)
}

// Reason classifies a record's filtering outcome, mirroring Table 1's rows.
type Reason uint8

const (
	// Accepted records feed the metrics.
	Accepted Reason = iota
	// Unstable: the prefix was not seen in all daily RIBs.
	Unstable
	// Unallocated: the path contains an ASN IANA reports as unassigned.
	Unallocated
	// Loop: the path contains non-adjacent duplicate ASNs.
	Loop
	// Poisoned: a non-top-tier AS appears between two top-tier ASes.
	Poisoned
	// VPNoLocation: the VP peers with a multi-hop collector.
	VPNoLocation
	// PrefixNoLocation: the prefix geolocated to no or multiple countries.
	PrefixNoLocation

	numReasons
)

func (r Reason) String() string {
	switch r {
	case Accepted:
		return "accepted"
	case Unstable:
		return "unstable"
	case Unallocated:
		return "unallocated"
	case Loop:
		return "loop"
	case Poisoned:
		return "poisoned"
	case VPNoLocation:
		return "VP no location"
	case PrefixNoLocation:
		return "prefix no location"
	}
	return fmt.Sprintf("Reason(%d)", r)
}

// Stats is the Table 1 accounting: record counts per filter reason.
type Stats struct {
	Counts [numReasons]int
	Total  int
}

// Rejected returns the count of non-accepted records.
func (s Stats) Rejected() int { return s.Total - s.Counts[Accepted] }

// Drops converts the accounting to its run-manifest form: total/accepted/
// rejected plus the per-reason drop counts keyed by Reason name.
func (s Stats) Drops() obs.DropStats {
	d := obs.DropStats{
		Total:    s.Total,
		Accepted: s.Counts[Accepted],
		Rejected: s.Rejected(),
		ByReason: make(map[string]int, int(numReasons)-1),
	}
	for r := Unstable; r < numReasons; r++ {
		d.ByReason[r.String()] = s.Counts[r]
	}
	return d
}

// Pct returns the percentage of all records with the given reason.
func (s Stats) Pct(r Reason) float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.Counts[r]) / float64(s.Total)
}

// Render formats the stats as the paper's Table 1. An empty accounting
// (Total == 0) renders every percentage as 0 — without the guard the
// "rejected" and "total" rows would claim 100% of zero records.
func (s Stats) Render() string {
	rejectedPct, totalPct := 0.0, 0.0
	if s.Total > 0 {
		rejectedPct = 100 - s.Pct(Accepted)
		totalPct = 100.0
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12d %7.2f%%\n", "rejected", s.Rejected(), rejectedPct)
	for _, r := range []Reason{Unstable, Unallocated, Loop, Poisoned, VPNoLocation, PrefixNoLocation} {
		fmt.Fprintf(&b, "  %-20s %12d %7.2f%%\n", r.String(), s.Counts[r], s.Pct(r))
	}
	fmt.Fprintf(&b, "%-22s %12d %7.2f%%\n", "accepted", s.Counts[Accepted], s.Pct(Accepted))
	fmt.Fprintf(&b, "%-22s %12d %7.2f%%\n", "total", s.Total, totalPct)
	return b.String()
}

// Config provides the sanitizer's external knowledge.
type Config struct {
	// Clique is the set of top-tier ASes used for poisoning detection.
	Clique map[asn.ASN]bool
	// Registry reports which ASNs are allocated.
	Registry *asn.Registry
	// RouteServers are removed from accepted paths.
	RouteServers map[asn.ASN]bool
	// GeoTable assigns countries to announced prefixes (§3.2.1); prefixes
	// it filtered become PrefixNoLocation rejects.
	GeoTable *geoloc.Table
}

// Dataset is the sanitized view of a collection: the accepted records with
// cleaned paths and resolved countries, plus the Table 1 accounting. It is
// the input to every ranking metric.
type Dataset struct {
	Col *routing.Collection
	// Accepted[i] is the canonical-order index of the i-th accepted record;
	// CleanPath[i] is its path after route-server removal and prepend
	// collapsing.
	Accepted  []int32
	CleanPath []bgp.Path
	// PathKey[i] is accepted record i's distinct-path key: records read
	// from the same source path share a key, and so share their clean
	// path. Keys are dense in [0, NumPaths) and numbered in first-appearance
	// order, so the first record with key k comes after the first record
	// with key k-1. Work that depends only on the path (dense ids, chain
	// resolution, relationship inference) runs once per key.
	PathKey  []int32
	NumPaths int
	// recVP / recPrefix are the accepted records' VP and prefix columns,
	// copied out during the filtering stream so the dataset never needs
	// random access into the collection's record store (which may be
	// out-of-core).
	recVP     []int32
	recPrefix []int32
	// VPCountry[v] is VP v's country, or "" when unlocatable.
	VPCountry []countries.Code
	// PrefixCountry[p] is prefix p's country, or "" when filtered.
	PrefixCountry []countries.Code
	// Weight[p] is the address weight of prefix p.
	Weight []uint64
	Stats  Stats

	// Dense AS-id interner, built once after filtering: every ASN that
	// appears on a clean path gets a small id in first-appearance order, so
	// the metric kernels can accumulate into flat slices indexed by id
	// instead of ASN-keyed maps.
	//
	// ASNOf[id] resolves an id back to its ASN; IDOf inverts it.
	ASNOf []asn.ASN
	IDOf  map[asn.ASN]int32
	// PathIDs[i] is CleanPath[i] with every hop resolved to its dense id.
	// Records with the same PathKey share one slice, so PathIDs is
	// read-only: a write through one record would change every record of
	// its path.
	PathIDs [][]int32
}

// NewDataset wraps a collection directly into a Dataset without filtering:
// every record is accepted with its path as-is. Use it for already-clean
// inputs (tests, externally sanitized MRT imports); vpCountry and
// prefixCountry must be indexed like the collection's VPs and prefixes.
func NewDataset(col *routing.Collection, vpCountry, prefixCountry []countries.Code) *Dataset {
	ds := &Dataset{
		Col:           col,
		VPCountry:     vpCountry,
		PrefixCountry: prefixCountry,
		Weight:        make([]uint64, len(col.Prefixes)),
	}
	for p, pfx := range col.Prefixes {
		ds.Weight[p] = netx.AddressWeight(pfx)
	}
	n := col.NumRecords()
	ds.Stats.Total = n
	ds.Stats.Counts[Accepted] = n
	ds.presize(n)
	keyOf := make([]int32, len(col.Paths))
	for i := range keyOf {
		keyOf[i] = -1
	}
	stream(col, func(base int, recs []routing.Record) {
		for k, r := range recs {
			if keyOf[r.Path] < 0 {
				keyOf[r.Path] = int32(ds.NumPaths)
				ds.NumPaths++
			}
			ds.accept(int32(base+k), r, col.Paths[r.Path], keyOf[r.Path])
		}
	})
	ds.buildInterner()
	return ds
}

// Run sanitizes the collection.
func Run(col *routing.Collection, cfg Config) *Dataset {
	start := time.Now()
	ds := &Dataset{
		Col:           col,
		VPCountry:     make([]countries.Code, col.World.VPs.Len()),
		PrefixCountry: make([]countries.Code, len(col.Prefixes)),
		Weight:        make([]uint64, len(col.Prefixes)),
	}
	for v := 0; v < col.World.VPs.Len(); v++ {
		if c, ok := col.World.VPs.Country(v); ok {
			ds.VPCountry[v] = c
		}
	}
	for p, pfx := range col.Prefixes {
		ds.Weight[p] = netx.AddressWeight(pfx)
		if cfg.GeoTable != nil {
			if c, ok := cfg.GeoTable.Country(pfx); ok {
				ds.PrefixCountry[p] = c
			}
		}
	}

	// Cache per-path verdicts and cleaned forms: the same path index backs
	// many records (one per prefix of its origin). A path gets its key when
	// the first accepted record carries it.
	type pathVerdict struct {
		reason Reason // Accepted, Unallocated, Loop or Poisoned
		key    int32  // distinct-path key, -1 until accepted once
		clean  bgp.Path
	}
	verdicts := make([]pathVerdict, len(col.Paths))
	j := newJudge(cfg)
	for i, p := range col.Paths {
		reason, clean := j.judgePath(p)
		verdicts[i] = pathVerdict{reason: reason, key: -1, clean: clean}
	}

	reasonOf := func(r routing.Record) Reason {
		switch {
		case !col.Stable[r.Prefix]:
			return Unstable
		case verdicts[r.Path].reason != Accepted:
			return verdicts[r.Path].reason
		case ds.VPCountry[r.VP] == "":
			return VPNoLocation
		case ds.PrefixCountry[r.Prefix] == "":
			return PrefixNoLocation
		}
		return Accepted
	}
	// Count first, then collect: the accepted-record columns are allocated
	// at their exact size, so the collecting pass never regrows them and
	// the dataset carries no spare capacity through the epoch.
	ds.Stats.Total = col.NumRecords()
	stream(col, func(_ int, recs []routing.Record) {
		for _, r := range recs {
			ds.Stats.Counts[reasonOf(r)]++
		}
	})
	ds.presize(ds.Stats.Counts[Accepted])
	stream(col, func(base int, recs []routing.Record) {
		for k, r := range recs {
			if reasonOf(r) != Accepted {
				continue
			}
			v := &verdicts[r.Path]
			if v.key < 0 {
				v.key = int32(ds.NumPaths)
				ds.NumPaths++
			}
			ds.accept(int32(base+k), r, v.clean, v.key)
		}
	})
	ds.buildInterner()
	ds.Stats.observe(time.Since(start))
	return ds
}

// stream runs fn over every record of col in canonical order. Streaming
// only fails on spilled collections with unreadable run files; that is not
// recoverable mid-build.
func stream(col *routing.Collection, fn func(base int, recs []routing.Record)) {
	err := col.ForEachRecord(func(base int, recs []routing.Record) error {
		fn(base, recs)
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("sanitize: record stream: %v", err))
	}
}

// presize gives the accepted-record columns room for n records.
func (d *Dataset) presize(n int) {
	d.Accepted = make([]int32, 0, n)
	d.recVP = make([]int32, 0, n)
	d.recPrefix = make([]int32, 0, n)
	d.CleanPath = make([]bgp.Path, 0, n)
	d.PathKey = make([]int32, 0, n)
}

// accept appends one accepted record: its canonical index, its columns, its
// clean path and its distinct-path key.
func (d *Dataset) accept(idx int32, r routing.Record, clean bgp.Path, key int32) {
	d.Accepted = append(d.Accepted, idx)
	d.recVP = append(d.recVP, r.VP)
	d.recPrefix = append(d.recPrefix, r.Prefix)
	d.CleanPath = append(d.CleanPath, clean)
	d.PathKey = append(d.PathKey, key)
}

// buildInterner assigns dense ids to every ASN on a clean path and resolves
// each distinct path to ids once, at the first record of its key; later
// records of the key share that slice. Ids are assigned in first-appearance
// order over the accepted records (a later record of a key brings no new
// ASN), so they are deterministic for a fixed collection.
func (d *Dataset) buildInterner() {
	first := make([]int32, 0, d.NumPaths) // first record of each key
	total := 0
	for i, k := range d.PathKey {
		if int(k) == len(first) {
			first = append(first, int32(i))
			total += len(d.CleanPath[i])
		}
	}
	d.IDOf = make(map[asn.ASN]int32)
	buf := make([]int32, 0, total)
	d.PathIDs = make([][]int32, len(d.CleanPath))
	for i, k := range d.PathKey {
		if f := first[k]; int(f) != i {
			d.PathIDs[i] = d.PathIDs[f]
			continue
		}
		start := len(buf)
		for _, a := range d.CleanPath[i] {
			id, ok := d.IDOf[a]
			if !ok {
				id = int32(len(d.ASNOf))
				d.IDOf[a] = id
				d.ASNOf = append(d.ASNOf, a)
			}
			buf = append(buf, id)
		}
		d.PathIDs[i] = buf[start:len(buf):len(buf)]
	}
}

// NumAS returns the number of distinct interned ASNs.
func (d *Dataset) NumAS() int { return len(d.ASNOf) }

// hopClass is what the path filters need to know about one ASN.
type hopClass uint8

const (
	hopUnallocated hopClass = 1 << iota
	hopClique
	hopRouteServer
)

// judge applies the path-content filters and cleaning of §3.1. It asks the
// config about each ASN once: a collection has millions of hops but only
// thousands of distinct ASNs.
type judge struct {
	cfg     Config
	classes map[asn.ASN]hopClass
}

func newJudge(cfg Config) *judge {
	return &judge{cfg: cfg, classes: map[asn.ASN]hopClass{}}
}

func (j *judge) class(a asn.ASN) hopClass {
	c, ok := j.classes[a]
	if !ok {
		if j.cfg.Registry != nil && !j.cfg.Registry.Allocated(a) {
			c |= hopUnallocated
		}
		if j.cfg.Clique[a] {
			c |= hopClique
		}
		if j.cfg.RouteServers[a] {
			c |= hopRouteServer
		}
		j.classes[a] = c
	}
	return c
}

// judgePath returns p's verdict and, for an accepted path, its clean form.
// The clean form is p itself unless cleaning changed it, so the common case
// allocates nothing.
func (j *judge) judgePath(p bgp.Path) (Reason, bgp.Path) {
	var all hopClass
	poisoned := false
	lastClique := -1
	for i, a := range p {
		c := j.class(a)
		all |= c
		if c&hopClique != 0 {
			// A non-clique AS between two clique ASes is the signature
			// of path poisoning under the valley-free assumption (§3.1).
			// Prepending neither hides nor creates one.
			poisoned = poisoned || lastClique >= 0 && i-lastClique > 1
			lastClique = i
		}
	}
	if all&hopUnallocated != 0 {
		return Unallocated, nil
	}
	dedup := p.DedupAdjacent()
	if dedup.HasNonAdjacentLoop() {
		return Loop, nil
	}
	if poisoned {
		return Poisoned, nil
	}
	// Clean: drop route-server hops, then collapse any prepending.
	if all&hopRouteServer == 0 {
		return Accepted, dedup
	}
	filtered := make(bgp.Path, 0, len(dedup))
	for _, a := range dedup {
		if j.class(a)&hopRouteServer == 0 {
			filtered = append(filtered, a)
		}
	}
	return Accepted, filtered.DedupAdjacent()
}

// Len returns the number of accepted records.
func (d *Dataset) Len() int { return len(d.Accepted) }

// Record returns the i-th accepted record's essentials.
func (d *Dataset) Record(i int) (vpIdx int32, prefixIdx int32, path bgp.Path) {
	return d.recVP[i], d.recPrefix[i], d.CleanPath[i]
}

// RecordIDs is Record with the path resolved to dense ids.
func (d *Dataset) RecordIDs(i int) (vpIdx int32, prefixIdx int32, ids []int32) {
	return d.recVP[i], d.recPrefix[i], d.PathIDs[i]
}

// PrefixOf returns the prefix of accepted record i.
func (d *Dataset) PrefixOf(i int) netip.Prefix {
	return d.Col.Prefixes[d.recPrefix[i]]
}

// CountriesWithPrefixes returns every country that has at least one
// geolocated prefix, sorted.
func (d *Dataset) CountriesWithPrefixes() []countries.Code {
	seen := map[countries.Code]bool{}
	for _, c := range d.PrefixCountry {
		if c != "" {
			seen[c] = true
		}
	}
	out := make([]countries.Code, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
